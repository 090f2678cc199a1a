"""Solvers: schedules, bounds, ISTA/ADMM/PnP variants, counter-example."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnp_online import cli, solvers
from pnp_online.config import ExperimentConfig, load_config
from pnp_online.denoisers import (averaged_linear_filter, identity_denoiser,
                                  tv_denoiser, tv_prox)
from pnp_online.errors import ConfigurationError, DivergenceError
from pnp_online.forward import (DtGeometry, build_dt_model, grad_full,
                                prox_datafit)
from pnp_online.metrics import dist_to_fix
from pnp_online.solvers import (composition_alpha, corollary1_constant,
                                estimate_gradient_noise, fista_q_update,
                                galerkin_guess, huber_gradient, operator_P,
                                prop2_bound, run_admm, run_counterexample, run_ista,
                                run_pnp_admm, run_pnp_ista, run_pnp_sgd,
                                sgd_bound)
from conftest import (StackedModel, datafit_value, filtered_tv_denoiser,
                      gaussian_model, make_truth, recording, stacked_model)


def quadratic_model(n=10, M=14, I=2, seed=0, noisy=True):
    rng = np.random.default_rng(seed)
    truth = rng.uniform(0, 1, n).reshape(1, n)
    model = gaussian_model(n=n, M=M, I=I, seed=seed, truth=truth)
    if noisy:
        # perturb measurements so the least-squares solution is nontrivial
        y = model.measurements
        model = StackedModel(
            model.matrices, y + 0.01 * rng.standard_normal(y.shape), n, 1)
    return model, truth


def least_squares_solution(model):
    n = model.n
    G = np.zeros((n, n))
    b = np.zeros(n)
    for A, y in zip(model.matrices, model.measurements):
        G += np.real(A.conj().T @ A)
        b += np.real(A.conj().T @ y)
    return np.linalg.solve(G, b)


# ------------------------------------------------------------- q schedule

def test_fista_q_first_step_golden_ratio():
    assert fista_q_update(1.0) == pytest.approx((1 + math.sqrt(5)) / 2,
                                                abs=1e-10)


def test_fista_q_second_step():
    # iterate the recursion numerically: q2 = (1 + sqrt(1 + 4*q1^2))/2
    q1 = fista_q_update(1.0)
    oracle = (1.0 + math.sqrt(1.0 + 4.0 * q1 * q1)) / 2.0
    assert oracle == pytest.approx(2.1935270853, abs=1e-9)
    assert fista_q_update(q1) == pytest.approx(oracle, abs=1e-12)


def test_fista_q_growth_lower_bound():
    q = 1.0
    for k in range(1, 51):
        q = fista_q_update(q)
        assert q >= (k + 2) / 2.0


# ------------------------------------------------------------------ bounds

def test_prop2_bound_plugin():
    assert prop2_bound(0.5, 1.0, 1) == pytest.approx(6.0)


def test_prop2_bound_halves_when_t_doubles():
    assert prop2_bound(0.3, 2.0, 10) == pytest.approx(
        2 * prop2_bound(0.3, 2.0, 20))


def test_prop2_bound_theta_to_zero_limit():
    assert prop2_bound(1e-12, 1.0, 5) == pytest.approx(2.0 / 5, rel=1e-9)


def test_sgd_bound_reduces_to_prop2_when_nu_zero():
    for t in (1, 7, 100):
        assert sgd_bound(0.5, 0.1, 0.0, 4, 2.0, t) == pytest.approx(
            prop2_bound(0.5, 4.0, t))


def test_sgd_bound_large_B_limit():
    val = sgd_bound(0.5, 0.1, 1.0, 10 ** 12, 2.0, 7)
    assert val == pytest.approx(2 * 3.0 * 4.0 / 7, rel=1e-4)


def test_corollary1_instance_sqrt_t_rate():
    theta, nu, L, x0 = 0.5, 0.3, 2.0, 1.5
    A = corollary1_constant(theta, x0, nu, L)
    for t in (1, 4, 100):
        gamma = 1.0 / (L * math.sqrt(t))
        assert sgd_bound(theta, gamma, nu, 1, x0, t) <= A / math.sqrt(t) + 1e-12


# ------------------------------------------------------------- composition

def test_composition_alpha_half_half():
    assert composition_alpha(0.5, 0.5) == pytest.approx(2.0 / 3.0)


def test_composition_alpha_near_identity():
    assert composition_alpha(0.4, 1e-12) == pytest.approx(0.4, abs=1e-9)


def test_composition_alpha_inequality_chain():
    theta = 0.5
    alpha = composition_alpha(theta, 0.25)       # gamma*L/2 = 1/4
    assert alpha == pytest.approx(4.0 / 7.0)
    assert alpha / (1 - alpha) == pytest.approx(4.0 / 3.0)
    assert alpha / (1 - alpha) <= 2 * (1 + theta) / (1 - theta)


# ------------------------------------------ a denoiser that is no prox

# The TV strength of the runs below: TV moves the iterates, so D's
# Jacobian is not symmetric along the run either.
FILTERED_TV_SIGMA = 0.01


def jacobian_asymmetry(denoiser, x, a, b, sigma, h=1e-6):
    """(|<J a, b> - <J b, a>|, |<J a, b>|) for D's Jacobian J at x, by
    central differences."""
    ja, jb = ((denoiser(x + h * d, sigma) - denoiser(x - h * d, sigma))
              / (2.0 * h) for d in (a, b))
    inner = float(np.sum(ja * b))
    return abs(inner - float(np.sum(jb * a))), abs(inner)


def test_filtered_tv_jacobian_is_not_symmetric():
    # a prox's Jacobian is symmetric wherever it exists: the filter's
    # asymmetry is rounding, and D's is of the order of <J a, b>
    rng = np.random.default_rng(0)
    x, a, b = (rng.uniform(-1.0, 1.0, (16, 16)) for _ in range(3))
    filtered = jacobian_asymmetry(
        lambda z, _s: averaged_linear_filter(z, 0.1), x, a, b, 0.1)[0]
    asymmetry, size = jacobian_asymmetry(filtered_tv_denoiser, x, a, b, 0.1)
    assert filtered < 1e-8
    assert asymmetry > 0.05 * size and asymmetry > 1e6 * filtered


@pytest.fixture(scope="module")
def filtered_tv_problem():
    """The 16^2 model of ACCEPTANCE 2 and 5, gamma = 1/L, and the fixed
    point x* of P for D: the last iterate of 300 PnP-ISTA steps, where
    dist has fallen below 1e-20. With it, the run's dist trace."""
    model = build_dt_model(DtGeometry(grid=16, transmitters=16,
                                      receivers=24),
                           make_truth(16, seed=0), seed=0, input_snr_db=40.0)
    gamma = 1.0 / model.lipschitz
    cfg = ExperimentConfig(gamma=gamma, sigma=FILTERED_TV_SIGMA,
                           iterations=300, seed=0, record_timing=False)
    xstar, trace = run_pnp_ista(model, filtered_tv_denoiser, cfg)
    assert trace.dist[-1] < 1e-20
    return model, gamma, xstar, np.asarray(trace.dist)


def test_filtered_tv_batch_run_meets_prop2_bound(filtered_tv_problem):
    # P = D o (I - gamma grad d) is composition_alpha(2/3, 1/2) = 3/4
    # averaged at gamma = 1/L
    _, _, xstar, dist = filtered_tv_problem
    theta = composition_alpha(2.0 / 3.0, 0.5)
    assert theta == pytest.approx(0.75)
    running = np.cumsum(dist) / np.arange(1, dist.size + 1)
    d0 = float(np.sum(xstar ** 2))            # x0 = 0
    assert all(running[t - 1] <= prop2_bound(theta, d0, t)
               for t in range(1, dist.size + 1))


def test_filtered_tv_online_run_meets_sgd_bound_in_expectation(
        filtered_tv_problem):
    # the dist trace averaged over seeds estimates its expectation
    model, gamma, xstar, _ = filtered_tv_problem
    theta = composition_alpha(2.0 / 3.0, 0.5)
    nu = estimate_gradient_noise(model, np.zeros(model.n), num_draws=1000,
                                 B=1, seed=0)
    iterations, seeds, batch = 100, 10, 4
    mean = np.zeros(iterations)
    for seed in range(seeds):
        cfg = ExperimentConfig(gamma=gamma, sigma=FILTERED_TV_SIGMA,
                               iterations=iterations, seed=seed,
                               batch_size=batch, record_timing=False)
        mean += run_pnp_sgd(model, filtered_tv_denoiser, cfg)[1].dist
    mean /= seeds
    running = np.cumsum(mean) / np.arange(1, iterations + 1)
    x0_dist = math.sqrt(float(np.sum(xstar ** 2)))
    assert all(running[t - 1]
               <= sgd_bound(theta, gamma, nu, batch, x0_dist, t)
               for t in range(1, iterations + 1))


# --------------------------------------------------------------- operator P

def test_operator_P_identity_zero_residual(small_dt_model):
    from pnp_online.forward import DtGeometry
    from conftest import make_truth, zero_residual_dt_model
    geometry = DtGeometry(grid=8, transmitters=2, receivers=6)
    truth = make_truth(8, seed=3)
    model = zero_residual_dt_model(geometry, truth)
    out = operator_P(model, identity_denoiser, 1.0 / model.lipschitz, 0.1,
                     truth.ravel())
    assert np.max(np.abs(out - truth.ravel())) < 1e-10


def test_operator_P_matches_one_ista_step(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    lam = 1e-4
    sigma = math.sqrt(gamma * lam)
    x = np.random.default_rng(0).standard_normal(model.n) * 0.01
    via_P = operator_P(model, tv_denoiser, gamma, sigma, x)
    manual = tv_prox((x - gamma * grad_full(model, x)).reshape(model.shape),
                     gamma * lam).ravel()
    assert np.array_equal(via_P, manual)


def test_converged_run_is_fixed_point(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    sigma = 0.1
    den = averaged_linear_filter
    cfg = ExperimentConfig(gamma=gamma, sigma=sigma, iterations=5000, seed=0,
                           dist_stride=5000, record_timing=False)
    x, _ = run_pnp_ista(model, den, cfg)
    residual = x - operator_P(model, den, gamma, sigma, x)
    assert float(np.sum(residual ** 2)) <= 1e-10


# ---------------------------------------------------------------- run_ista

def test_ista_no_iterations_returns_x0():
    model, _ = quadratic_model()
    cfg = ExperimentConfig(gamma=1.0 / model.lipschitz, sigma=0.0,
                           iterations=0, seed=0)
    x, trace = run_ista(model, lambda z: z, cfg)
    assert np.array_equal(x, np.zeros(model.n))
    assert len(trace) == 0


def test_ista_identity_prox_converges_to_least_squares():
    model, _ = quadratic_model()
    cfg = ExperimentConfig(gamma=1.0 / model.lipschitz, sigma=0.0,
                           iterations=4000, seed=0, dist_stride=4000,
                           record_timing=False)
    x, _ = run_ista(model, lambda z: z, cfg)
    assert np.max(np.abs(grad_full(model, x))) < 1e-6
    assert np.max(np.abs(x - least_squares_solution(model))) < 1e-5


def test_fista_beats_ista_at_fifty_iterations():
    model, _ = quadratic_model(n=12, M=16, I=2, seed=1)
    lam = 1e-3
    gamma = 1.0 / model.lipschitz

    def prox(z):
        # 10 ||z||^2 < 10 at every call: a gap below 1e-13
        return tv_prox(z, gamma * lam, inner_tol=1e-14)

    def objective(x):
        return datafit_value(model, x) + lam * float(np.sum(np.abs(np.diff(x))))

    basic = ExperimentConfig(gamma=gamma, sigma=0.0, iterations=50, seed=0,
                             record_timing=False)
    accel = ExperimentConfig(gamma=gamma, sigma=0.0, iterations=50, seed=0,
                             accelerated=True, record_timing=False)
    xb, _ = run_ista(model, prox, basic)
    xa, _ = run_ista(model, prox, accel)
    assert objective(xa) <= objective(xb) + 1e-12


# ---------------------------------------------------------------- run_admm

def test_admm_zero_model_keeps_x0():
    model = stacked_model(np.zeros((4, 4)))
    cfg = ExperimentConfig(gamma=1.0, sigma=0.0, iterations=20, seed=0,
                           record_timing=False)
    x, _ = run_admm(model, lambda z: z, cfg)
    assert np.allclose(x, np.zeros(4), atol=1e-12)


def test_admm_identity_prox_least_squares():
    model, _ = quadratic_model(seed=2)
    cfg = ExperimentConfig(gamma=1.0 / model.lipschitz, sigma=0.0,
                           iterations=3000, seed=0, dist_stride=3000,
                           record_timing=False)
    x, _ = run_admm(model, lambda z: z, cfg)
    assert np.max(np.abs(x - least_squares_solution(model))) < 1e-6


def test_admm_matches_ista_on_tv_problem():
    model, _ = quadratic_model(n=9, M=12, I=3, seed=3)
    model = StackedModel(model.matrices, model.measurements, 3, 3)
    lam = 1e-3
    gamma = 1.0 / model.lipschitz

    def prox(z):
        # 10 ||z||^2 < 10 at every call: a gap below 1e-13
        return tv_prox(z, gamma * lam, inner_tol=1e-14)

    def objective(x):
        g = x.reshape(3, 3)
        return datafit_value(model, x) + lam * (
            float(np.sum(np.abs(np.diff(g, axis=0))))
            + float(np.sum(np.abs(np.diff(g, axis=1)))))

    long_cfg = ExperimentConfig(gamma=gamma, sigma=0.0, iterations=6000,
                                seed=0, dist_stride=6000, record_timing=False)
    x_ista, _ = run_ista(model, prox, long_cfg)
    x_admm, _ = run_admm(model, prox, long_cfg)
    assert objective(x_admm) == pytest.approx(objective(x_ista), rel=1e-5)


# ---------------------------------------------------------------- PnP-ISTA

def test_pnp_ista_tv_identical_to_ista(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    lam = 1e-4
    sigma = math.sqrt(gamma * lam)
    cfg = ExperimentConfig(gamma=gamma, sigma=sigma, iterations=100, seed=0,
                           record_timing=False)
    x1, t1 = run_pnp_ista(model, tv_denoiser, cfg)

    def prox(z):
        return tv_prox(z, gamma * lam)

    x2, t2 = run_ista(model, prox, cfg)
    assert np.array_equal(x1, x2)
    assert t1.dist == t2.dist


def test_pnp_ista_identity_is_gradient_descent():
    model, _ = quadratic_model(seed=4)
    gamma = 1.0 / model.lipschitz
    cfg = ExperimentConfig(gamma=gamma, sigma=0.1, iterations=30, seed=0,
                           record_timing=False)
    x1, _ = run_pnp_ista(model, identity_denoiser, cfg)
    x = np.zeros(model.n)
    for _ in range(30):
        x = x - gamma * grad_full(model, x)
    assert np.array_equal(x1, x)


def test_pnp_ista_prop2_bound_filter(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    sigma = 0.1
    den = averaged_linear_filter
    ref = ExperimentConfig(gamma=gamma, sigma=sigma, iterations=10_000, seed=0,
                           dist_stride=10_000, record_timing=False)
    xstar, _ = run_pnp_ista(model, den, ref)
    d0 = float(np.sum(xstar ** 2))               # x0 = 0
    cfg = ExperimentConfig(gamma=gamma, sigma=sigma, iterations=300, seed=0,
                           record_timing=False)
    _, trace = run_pnp_ista(model, den, cfg)
    dist = np.asarray(trace.dist)
    run_avg = np.cumsum(dist) / np.arange(1, dist.size + 1)
    for t in range(1, dist.size + 1):
        assert run_avg[t - 1] <= prop2_bound(0.5, d0, t)


# ---------------------------------------------------------------- PnP-ADMM

def test_pnp_admm_identity_least_squares():
    model, _ = quadratic_model(seed=5)
    cfg = ExperimentConfig(gamma=1.0 / model.lipschitz, sigma=0.0,
                           iterations=3000, seed=0, dist_stride=3000,
                           record_timing=False)
    x, _ = run_pnp_admm(model, identity_denoiser, cfg)
    assert np.max(np.abs(x - least_squares_solution(model))) < 1e-6


def test_pnp_admm_converges_to_fix_P(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    sigma = 0.1
    den = averaged_linear_filter
    cfg = ExperimentConfig(gamma=gamma, sigma=sigma, iterations=4000, seed=0,
                           dist_stride=4000, record_timing=False)
    x, _ = run_pnp_admm(model, den, cfg)
    assert np.max(np.abs(x - operator_P(model, den, gamma, sigma, x))) < 1e-8


def cold_start_admm(model, denoiser, config):
    """The ADMM loop with every data prox solved by CG from zero: the
    oracle of the warm-started loop."""
    x, s = np.zeros(model.n), np.zeros(model.n)
    for _ in range(config.iterations):
        z, info = prox_datafit(model, config.gamma, x - s)
        assert info.converged
        x = denoiser((z + s).reshape(model.shape), config.sigma).ravel()
        s = s + (z - x)
    return x


def spd_pairs(rng, n, count, gamma=0.4):
    """A = I + gamma H^T H and `count` pairs (z, A z), z standard normal."""
    H = rng.standard_normal((n + 3, n))
    A = np.eye(n) + gamma * H.T @ H
    zs = rng.standard_normal((count, n))
    return A, [(z, A @ z) for z in zs]


def test_galerkin_guess_reproduces_a_right_side_in_the_span():
    rng = np.random.default_rng(0)
    A, pairs = spd_pairs(rng, 20, 5)
    weights = rng.standard_normal(5)
    rhs = sum(w * image for w, (_, image) in zip(weights, pairs))
    guess = galerkin_guess(pairs, rhs)
    expected = sum(w * z for w, (z, _) in zip(weights, pairs))
    assert np.linalg.norm(guess - expected) <= 1e-10 * np.linalg.norm(expected)
    # a right side outside the span: the error is A-orthogonal to the span
    rhs = rng.standard_normal(20)
    error = np.linalg.solve(A, rhs) - galerkin_guess(pairs, rhs)
    assert max(abs(z @ A @ error) for z, _ in pairs) <= 1e-10 * np.linalg.norm(rhs)


def test_galerkin_guess_of_nearly_dependent_history_stays_finite():
    rng = np.random.default_rng(1)
    A, [(z, image)] = spd_pairs(rng, 20, 1)
    nudge = 1e-15 * rng.standard_normal(20)
    pairs = [(z, image), (z.copy(), image.copy()), (z + nudge, A @ (z + nudge)),
             (2.0 * z, 2.0 * image), (np.zeros(20), np.zeros(20))]
    rhs = 3.0 * image
    guess = galerkin_guess(pairs, rhs)
    assert np.all(np.isfinite(guess))
    assert np.linalg.norm(guess - 3.0 * z) <= 1e-10 * np.linalg.norm(z)
    assert np.array_equal(galerkin_guess([], rhs), np.zeros(20))


def test_pnp_admm_matches_cold_start_oracle(small_dt_model):
    model, _ = small_dt_model
    for denoiser, sigma in ((averaged_linear_filter, 0.3), (tv_denoiser, 0.05)):
        cfg = ExperimentConfig(gamma=1.0 / model.lipschitz, sigma=sigma,
                               iterations=40, seed=0, dist_stride=40,
                               record_timing=False)
        x, trace = run_pnp_admm(model, denoiser, cfg)
        oracle = cold_start_admm(model, denoiser, cfg)
        assert np.linalg.norm(x - oracle) <= 1e-9 * np.linalg.norm(oracle)
        assert trace.warnings == []


def admm_filter_matvecs(monkeypatch, fixed_tol=None):
    """The final x and the Gram matvecs of the benchmark's admm-filter run,
    every data prox solved to `fixed_tol` when it is given."""
    keys = {"phantom": "checker", "seed": 0, "grid": 32, "transmitters": 16,
            "receivers": 48, "algorithm": "pnp-admm", "denoiser": "filter",
            "iterations": 60, "record_timing": "false"}
    cfg = load_config(overrides=[f"{k}={v}" for k, v in keys.items()])
    truth = cli.phantom_from_config(cfg)
    model = cli.model_from_config(cfg, truth)
    matvecs = []

    def counting_prox(model, gamma, x, tol, x0=None):
        z, info = prox_datafit(model, gamma, x, tol=fixed_tol or tol, x0=x0)
        # a warm start adds the matvec of its initial residual
        matvecs.append(info.iterations + (x0 is not None))
        return z, info

    monkeypatch.setattr(solvers, "prox_datafit", counting_prox)
    x, _ = cli.run_algorithm(cfg, model, truth)
    assert len(matvecs) == 60
    return x, sum(matvecs)


def test_pnp_admm_warm_start_cuts_the_cg_work(monkeypatch):
    """The benchmark's admm-filter run: 481 Gram matvecs from zero."""
    _, warm = admm_filter_matvecs(monkeypatch)
    monkeypatch.setattr(solvers, "galerkin_guess", lambda solved, rhs: None)
    _, cold = admm_filter_matvecs(monkeypatch)
    assert warm < 0.7 * cold


def test_pnp_admm_tolerance_schedule(monkeypatch):
    # the k-th data prox stops at max(1e-12, 2^-24 / k^2)
    tols = []

    def spy(model, gamma, x, tol, x0=None):
        tols.append(tol)
        return prox_datafit(model, gamma, x, tol=tol, x0=x0)

    monkeypatch.setattr(solvers, "prox_datafit", spy)
    model, _ = quadratic_model(seed=5)
    cfg = ExperimentConfig(gamma=1.0 / model.lipschitz, sigma=0.0,
                           iterations=245, seed=0, dist_stride=245,
                           record_timing=False)
    run_pnp_admm(model, identity_denoiser, cfg)
    assert len(tols) == 245
    for k in (1, 2, 244, 245):
        assert tols[k - 1] == max(1e-12, 2.0 ** -24 / k ** 2)
    assert tols[0] == 2.0 ** -24 and tols[243] > 1e-12 and tols[244] == 1e-12


def test_pnp_admm_summable_tolerance_cuts_the_cg_work(monkeypatch):
    """The benchmark's admm-filter run against the same loop with every
    data prox solved to 1e-12: 213 Gram matvecs against 314."""
    x, scheduled = admm_filter_matvecs(monkeypatch)
    fixed, fixed_matvecs = admm_filter_matvecs(monkeypatch,
                                                fixed_tol=1e-12)
    assert scheduled <= 0.75 * fixed_matvecs
    assert np.linalg.norm(x - fixed) <= 1e-9 * np.linalg.norm(fixed)


# ----------------------------------------------------------------- PnP-SGD

def test_pnp_sgd_full_batch_equals_pnp_ista(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    cfg = ExperimentConfig(gamma=gamma, sigma=0.1, iterations=60, seed=0,
                           sample_mode="full", record_timing=False)
    den = averaged_linear_filter
    xs, ts = run_pnp_sgd(model, den, cfg)
    xi, ti = run_pnp_ista(model, den, cfg)
    assert np.array_equal(xs, xi)
    assert ts.dist == ti.dist


def test_pnp_sgd_deterministic(small_dt_model):
    model, _ = small_dt_model
    cfg = ExperimentConfig(gamma=1.0 / model.lipschitz, sigma=0.1,
                           iterations=50, seed=3, batch_size=2,
                           record_timing=False)
    den = averaged_linear_filter
    x1, t1 = run_pnp_sgd(model, den, cfg)
    x2, t2 = run_pnp_sgd(model, den, cfg)
    assert np.array_equal(x1, x2)
    assert t1.dist == t2.dist
    assert all(np.array_equal(a, b) for a, b in zip(t1.indices, t2.indices))


def cycle_indices(num, B, iterations, seed):
    """The minibatch indices a `cycle` run over `num` components records,
    in the order it drew them."""
    model = gaussian_model(n=2, M=2, I=num, seed=seed, truth=np.zeros((1, 2)))
    cfg = ExperimentConfig(gamma=1.0 / model.lipschitz, sigma=0.0,
                           iterations=iterations, seed=seed, batch_size=B,
                           sample_mode="cycle", dist_stride=iterations,
                           record_timing=False)
    _, trace = run_pnp_sgd(model, identity_denoiser, cfg)
    return np.concatenate(trace.indices)


def test_cycle_run_draws_every_component_once_per_pass():
    # 9 minibatches of 4 are 6 passes over 6 components; 4 of the batches
    # span two passes
    drawn = cycle_indices(num=6, B=4, iterations=9, seed=0)
    for one_pass in drawn.reshape(6, 6):
        assert sorted(one_pass.tolist()) == list(range(6))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=7),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=10**6))
def test_cycle_run_counts_stay_balanced(num, B, iterations, seed):
    # sequential draws from chained random permutations, stopped anywhere:
    # balanced to within 1
    counts = np.bincount(cycle_indices(num, B, iterations, seed),
                         minlength=num)
    assert counts.max() - counts.min() <= 1


@pytest.mark.parametrize("algorithm, sample_mode, accelerated", [
    *[("pnp-sgd", mode, accelerated)
      for mode in ("replacement", "cycle", "full")
      for accelerated in (False, True)],
    ("pnp-admm", "replacement", False),
    ("ista", "replacement", False)])
def test_dist_diagnostic_leaves_the_iterates_alone(small_dt_model, algorithm,
                                                   sample_mode, accelerated):
    """The iterates, their SNR and the minibatches are the same bits whether
    `dist` is taken at every iteration or at the last one only."""
    model, truth = small_dt_model
    gamma, lam, iterations = 1.0 / model.lipschitz, 1e-4, 8
    runs = []
    for stride in (1, iterations):
        cfg = ExperimentConfig(gamma=gamma, sigma=math.sqrt(gamma * lam),
                               iterations=iterations, seed=5, batch_size=2,
                               sample_mode=sample_mode,
                               accelerated=accelerated, dist_stride=stride,
                               record_timing=False)
        if algorithm == "ista":
            x, trace = run_ista(model, lambda z: tv_prox(z, gamma * lam),
                                cfg, truth)
        else:
            run = run_pnp_sgd if algorithm == "pnp-sgd" else run_pnp_admm
            x, trace = run(model, tv_denoiser, cfg, truth)
        runs.append((x, trace))
    (x_every, every), (x_last, last) = runs
    assert np.array_equal(x_every, x_last)
    assert every.snr == last.snr
    assert all(math.isfinite(snr) for snr in last.snr)
    assert ([None if i is None else i.tolist() for i in every.indices]
            == [None if i is None else i.tolist() for i in last.indices])
    assert all(math.isnan(d) for d in last.dist[:-1])
    assert last.dist[-1] == every.dist[-1]


def test_pnp_sgd_smaller_gamma_lower_plateau(small_dt_model):
    model, _ = small_dt_model
    den = averaged_linear_filter
    plateaus = []
    for scale in (1.0, 1.0 / 16.0):
        cfg = ExperimentConfig(gamma=scale / model.lipschitz, sigma=0.1,
                               iterations=2000, seed=0, batch_size=2,
                               record_timing=False)
        _, trace = run_pnp_sgd(model, den, cfg)
        plateaus.append(float(np.mean(np.asarray(trace.dist)[-100:])))
    assert plateaus[1] < plateaus[0]


def test_pnp_sgd_prop5_bound_seed_averaged(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    sigma = 0.1
    den = averaged_linear_filter
    ref = ExperimentConfig(gamma=gamma, sigma=sigma, iterations=10_000, seed=0,
                           dist_stride=10_000, record_timing=False)
    xstar, _ = run_pnp_ista(model, den, ref)
    x0_dist = math.sqrt(float(np.sum(xstar ** 2)))
    nu = estimate_gradient_noise(model, np.zeros(model.n), num_draws=1000,
                                 B=1, seed=0)
    B = 2
    avg = np.zeros(200)
    for seed in range(20):
        cfg = ExperimentConfig(gamma=gamma, sigma=sigma, iterations=200,
                               seed=seed, batch_size=B, record_timing=False)
        _, trace = run_pnp_sgd(model, den, cfg)
        avg += np.asarray(trace.dist)
    avg /= 20.0
    run_avg = np.cumsum(avg) / np.arange(1, 201)
    for t in range(1, 201):
        assert run_avg[t - 1] <= sgd_bound(0.5, gamma, nu, B, x0_dist, t)


# ------------------------------------------------- trace distance and clock

def prox_denoiser(prox):
    """A regularizer prox as a denoiser, the way ISTA and ADMM plug it in."""
    return lambda z, _sigma: prox(z)


@pytest.mark.parametrize("algorithm", ["ista", "admm", "pnp-ista",
                                       "pnp-admm", "pnp-sgd"])
def test_trace_dist_is_dist_to_fix(small_dt_model, algorithm):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    lam = 1e-4
    cfg = ExperimentConfig(gamma=gamma, sigma=math.sqrt(gamma * lam),
                           iterations=6, seed=2, batch_size=2,
                           record_timing=False)
    # every denoiser (or prox) output: each iteration's iterate, then the
    # P(x) that its dist denoised
    outputs = []
    if algorithm in ("ista", "admm"):
        def prox(z):
            return tv_prox(z, gamma * lam)

        run = run_ista if algorithm == "ista" else run_admm
        _, trace = run(model, recording(prox, outputs), cfg)
        denoiser = prox_denoiser(prox)
    else:
        denoiser = tv_denoiser
        recorded = recording(tv_denoiser, outputs)
        run = {"pnp-ista": run_pnp_ista, "pnp-admm": run_pnp_admm,
               "pnp-sgd": run_pnp_sgd}[algorithm]
        _, trace = run(model, recorded, cfg)
    assert len(outputs) == 2 * len(trace.dist) == 12
    for dist, x in zip(trace.dist, outputs[::2]):
        assert dist == dist_to_fix(model, denoiser, cfg.gamma, cfg.sigma, x)


def sleeping_denoiser(z, sigma):
    time.sleep(0.02)
    return identity_denoiser(z, sigma)


@pytest.mark.parametrize("run", [run_pnp_ista, run_pnp_sgd, run_pnp_admm])
def test_elapsed_excludes_diagnostics(run):
    # the solver and the dist diagnostic each denoise once per iteration
    model, _ = quadratic_model(seed=8)
    k = 10
    cfg = ExperimentConfig(gamma=1.0 / model.lipschitz, sigma=0.1,
                           iterations=k, seed=0, batch_size=1)
    _, trace = run(model, sleeping_denoiser, cfg)
    assert all(math.isfinite(d) for d in trace.dist)
    assert k * 0.02 <= trace.elapsed[-1] < 1.5 * k * 0.02


def test_divergence_detector_raises():
    model, _ = quadratic_model(seed=6)
    # absurdly large step forces blow-up
    cfg = ExperimentConfig(gamma=1e9 / model.lipschitz, sigma=0.0,
                           iterations=500, seed=0, record_timing=False)
    with pytest.raises(DivergenceError) as excinfo:
        run_ista(model, lambda z: z, cfg)
    assert excinfo.value.trace is not None


@pytest.mark.parametrize("run", [run_pnp_ista, run_pnp_sgd])
def test_forward_backward_loop_starts_at_x0(run):
    model, _ = quadratic_model(seed=7)
    cfg = ExperimentConfig(gamma=1.0 / model.lipschitz, sigma=0.0,
                           iterations=0, seed=0)
    x0 = np.arange(model.n, dtype=float)
    x, _ = run(model, identity_denoiser, cfg, x0=x0)
    assert np.array_equal(x, x0)
    with pytest.raises(ConfigurationError, match="x0 length mismatch"):
        run(model, identity_denoiser, cfg, x0=np.zeros(model.n + 1))


# ----------------------------------------------------------- counter-example

def test_counterexample_always_upper_branch_exact():
    z = run_counterexample(0.5, 1.0, 1.0, 0.1, 10_000)
    # bitwise identical to an independently coded scalar recursion
    ref, cur = [0.1], 0.1
    for _ in range(10_000):
        x = cur + 1.0 * math.copysign(1.0, cur) if cur != 0.0 else 0.0
        cur = x - 0.5 * huber_gradient(x)
        ref.append(cur)
    assert np.array_equal(z, np.asarray(ref))
    # closed form 0.1 + 0.5 k up to accumulated floating-point rounding
    ks = np.arange(10_001)
    closed = 0.1 + 0.5 * ks
    assert np.max(np.abs(np.abs(z) - closed)) < 1e-11


def test_counterexample_divergence_bound_random_triples():
    rng = np.random.default_rng(0)
    count = 0
    while count < 20:
        gamma = rng.uniform(0.05, 0.95)
        c = rng.uniform(0.5, 4.0)
        sigma = rng.uniform(gamma / math.sqrt(c) * 1.05, 3.0)
        if sigma <= gamma / math.sqrt(c):
            continue
        count += 1
        z0 = rng.uniform(-1.0, 1.0)
        t = 500
        z = run_counterexample(gamma, sigma, c, z0, t)
        drift = sigma * math.sqrt(c) - gamma
        slack = 1e-9 * np.arange(t + 1)          # accumulated rounding
        assert np.all(np.abs(z) + slack >= abs(z0)
                      + np.arange(t + 1) * drift - 1e-12)


def test_counterexample_bounded_when_condition_violated():
    z = run_counterexample(0.5, 0.2, 1.0, 0.1, 10_000)
    assert np.max(np.abs(z)) < 10.0


def test_counterexample_zero_start_stays_on_huber_path():
    # sgn(0) = 0: first step is pure gradient, afterwards shift kicks in
    z = run_counterexample(0.5, 1.0, 1.0, 0.0, 3)
    assert z[0] == 0.0
    assert z[1] == 0.0                           # D(0 - gamma*0) = 0


def test_counterexample_rejects_bad_gamma():
    with pytest.raises(ConfigurationError):
        run_counterexample(1.5, 1.0, 1.0, 0.1, 10)


def test_huber_gradient_branches():
    assert huber_gradient(0.5) == 0.5
    assert huber_gradient(-0.5) == -0.5
    assert huber_gradient(3.0) == 1.0
    assert huber_gradient(-3.0) == -1.0
    assert huber_gradient(0.0) == 0.0


# ------------------------------------------------------------ noise estimate

def test_estimate_gradient_noise_zero_for_single_component():
    model, _ = quadratic_model(I=1, seed=7)
    nu = estimate_gradient_noise(model, np.zeros(model.n), num_draws=50)
    assert nu == pytest.approx(0.0, abs=1e-14)


def test_estimate_gradient_noise_deterministic(small_dt_model):
    model, _ = small_dt_model
    a = estimate_gradient_noise(model, np.zeros(model.n), num_draws=100,
                                seed=4)
    b = estimate_gradient_noise(model, np.zeros(model.n), num_draws=100,
                                seed=4)
    assert a == b


# --------------------------------------------------------------- properties

@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e6))
def test_fista_q_monotone_property(q):
    assert fista_q_update(q) > q


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1 - 1e-6),
       st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_composition_alpha_in_unit_interval(a1, a2):
    alpha = composition_alpha(a1, a2)
    assert 0.0 < alpha < 1.0
