"""Spectral bounds and regularized CG against dense oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnp_online.errors import ConfigurationError
from pnp_online.forward import prox_datafit
from pnp_online.linops import (cg_solve_regularized, lambda_max_bound,
                               power_iteration_lipschitz, smaller_gram)
from conftest import stacked_model


def power_iteration_of(h, **kwargs):
    """The power iteration on h^H h, applied as h^H (h v)."""
    return power_iteration_lipschitz(lambda v: h.conj().T @ (h @ v),
                                     h.shape[1], **kwargs)


def test_power_iteration_diagonal():
    est = power_iteration_of(np.diag([1.0, 2.0]))
    assert est.value == pytest.approx(4.0, abs=1e-9)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_power_iteration_identity(n):
    est = power_iteration_of(np.eye(n))
    assert est.value == pytest.approx(1.0, abs=1e-10)


def test_power_iteration_random_complex_vs_dense_eig():
    rng = np.random.default_rng(7)
    H = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
    est = power_iteration_of(H)
    oracle = float(np.max(np.linalg.eigvalsh(H.conj().T @ H)))
    assert est.value == pytest.approx(oracle, rel=1e-8)


def test_power_iteration_zero_operator():
    est = power_iteration_of(np.zeros((4, 4)))
    assert est.value == 0.0
    assert est.residual == 0.0


def test_power_iteration_deterministic():
    rng = np.random.default_rng(0)
    H = rng.standard_normal((5, 5))
    a = power_iteration_of(H, seed=11)
    b = power_iteration_of(H, seed=11)
    assert a.value == b.value
    assert a.iterations_used == b.iterations_used


def _wide_complex_matrix():
    rng = np.random.default_rng(3)
    return rng.standard_normal((6, 40)) + 1j * rng.standard_normal((6, 40))


def _columns(h):
    return lambda cols: h[:, cols]


@pytest.mark.parametrize("n", [40, 300])
def test_output_gram_matches_dense_product(n):
    # a wide H gives H H^H; 300 columns leave an uneven last chunk
    rng = np.random.default_rng(3)
    H = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
    assert np.allclose(smaller_gram(_columns(H), H.shape), H @ H.conj().T,
                       rtol=1e-13, atol=1e-12)


def test_smaller_gram_of_tall_matrix_is_input_gram():
    H = np.random.default_rng(4).standard_normal((30, 5))
    assert np.allclose(smaller_gram(_columns(H), H.shape), H.T @ H,
                       rtol=1e-13, atol=1e-12)


def test_matrix_free_operator_has_no_output_gram():
    # the power iteration needs only the n x n Gram matvec of a wide H, not
    # its M x M output Gram H H^H, whose top eigenvalue is the oracle
    H = _wide_complex_matrix()
    est = power_iteration_of(H, seed=5)
    oracle = float(np.max(np.linalg.eigvalsh(H @ H.conj().T)))
    assert est.value == pytest.approx(oracle, rel=1e-8)


# ------------------------------------------- certified lambda_max by squaring

def assert_certified(bound, h):
    """oracle <= bound <= oracle * (1 + 1e-9), oracle = sigma_max(h)^2."""
    oracle = float(np.linalg.svd(h, compute_uv=False)[0]) ** 2
    assert bound >= oracle
    assert bound <= oracle * (1.0 + 1e-9)


@pytest.mark.parametrize("shape", [(6, 40), (40, 6), (12, 12)],
                         ids=["wide", "tall", "square"])
@pytest.mark.parametrize("seed", [0, 5])
def test_lambda_max_bound_gaussian_matrices(shape, seed):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal(shape) / math.sqrt(shape[0])
    assert_certified(lambda_max_bound(_columns(H), H.shape), H)


@pytest.mark.parametrize("seed", [0, 5])
def test_lambda_max_bound_wide_complex_dominates_power_iteration(seed):
    H = _wide_complex_matrix()
    bound = lambda_max_bound(_columns(H), H.shape)
    assert_certified(bound, H)
    assert bound >= power_iteration_of(H, seed=seed).value


def test_lambda_max_bound_rank_one():
    rng = np.random.default_rng(6)
    H = np.outer(rng.standard_normal(9) + 1j * rng.standard_normal(9),
                 rng.standard_normal(50))
    assert_certified(lambda_max_bound(_columns(H), H.shape), H)


def test_lambda_max_bound_repeated_top_eigenvalue():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    v, _ = np.linalg.qr(rng.standard_normal((30, 8)))
    H = q @ np.diag([3.0, 3.0, 3.0, 2.0, 1.0, 0.5, 0.1, 0.0]) @ v.T
    assert_certified(lambda_max_bound(_columns(H), H.shape), H)


@pytest.mark.parametrize("shape", [(3, 8), (8, 3)], ids=["wide", "tall"])
def test_lambda_max_bound_zero_operator(shape):
    H = np.zeros(shape)
    with np.errstate(all="raise"):            # no log of 0
        assert lambda_max_bound(_columns(H), shape) == 0.0


def test_lambda_max_bound_on_dt_components(small_dt_model):
    model, _ = small_dt_model
    for u, bound in zip(model.incident, model.lambdas):
        assert_certified(bound, model.scattering * u)


def test_born_adjoint_matches_conjugate_transpose(small_dt_model):
    # the model's Re(H_i^H y), one component at a time
    model, _ = small_dt_model
    rng = np.random.default_rng(2)
    for i, u in enumerate(model.incident):
        y = rng.standard_normal(model.M) + 1j * rng.standard_normal(model.M)
        expected = ((model.scattering * u).conj().T @ y).real
        assert np.allclose(model.adjoint_sum(y[None], [i]), expected,
                           rtol=1e-13, atol=1e-13 * np.max(np.abs(expected)))


def test_cg_zero_operator_returns_rhs():
    rhs = np.arange(4.0)
    z, _ = cg_solve_regularized(stacked_model(np.zeros((4, 4))), 0.5, rhs)
    assert np.array_equal(z, rhs)


def test_cg_identity_halves_rhs():
    rhs = np.linspace(-1.0, 1.0, 5)
    z, _ = cg_solve_regularized(stacked_model(np.eye(5)), 1.0, rhs)
    assert np.allclose(z, rhs / 2.0, atol=1e-12)


def test_cg_solves_a_rhs_whose_squared_norm_underflows():
    # rhs . rhs underflowed to 0, and CG returned z = 0 as converged
    H = np.eye(4) + 0.1
    unit = np.linalg.solve(np.eye(4) + H.T @ H, np.arange(1.0, 5.0))
    rhs = 1e-200 * np.arange(1.0, 5.0)
    assert np.linalg.norm(rhs) == 0.0
    z, info = cg_solve_regularized(stacked_model(H), 1.0, rhs)
    assert info.converged and info.relative_residual <= 1e-12
    assert np.allclose(z, 1e-200 * unit, rtol=1e-12, atol=0)
    assert np.all(np.abs(info.residual) <= 1e-12 * np.abs(rhs).max())
    z, info = cg_solve_regularized(stacked_model(H), 1.0, rhs, x0=z)
    assert info.converged and info.iterations == 0


@pytest.mark.parametrize("tol", [1e-12, 2.0 ** -24])
@pytest.mark.parametrize("scale", [1e-150, 1e-153])
def test_cg_of_a_tiny_rhs_runs_as_at_unit_scale(scale, tol):
    # the squared stopping residual (tol ||rhs||)^2 underflowed: at 1e-12
    # CG reported a relative residual of 0.0 and, at 1e-153, stopped one
    # iteration early with a 2000-fold error
    rng = np.random.default_rng(0)
    H = rng.standard_normal((30, 30))
    model = stacked_model(H)
    rhs = rng.standard_normal(30)
    exact = np.linalg.solve(np.eye(30) + H.T @ H, rhs)

    def solve(scale):
        z, info = cg_solve_regularized(model, 1.0, scale * rhs, tol=tol)
        z = z / scale
        error = np.linalg.norm(z - exact) / np.linalg.norm(exact)
        true = np.linalg.norm(rhs - z - H.T @ (H @ z)) / np.linalg.norm(rhs)
        return info, error, true

    unit, unit_error, _ = solve(1.0)
    info, error, true = solve(scale)
    assert info.converged and info.iterations == unit.iterations
    assert 0.0 < info.relative_residual <= tol
    assert abs(info.relative_residual - true) <= 1e-13
    assert error <= 10.0 * unit_error


@pytest.mark.parametrize("tol", [math.nan, -1e-12, 1.0, math.inf])
def test_cg_tol_outside_0_1_is_a_config_error(tol):
    # a NaN or negative tol ran all 10 n iterations; inf returned zero
    # after 0 iterations as converged
    with pytest.raises(ConfigurationError, match="tol must lie in"):
        cg_solve_regularized(stacked_model(np.eye(3)), 1.0, np.ones(3),
                             tol=tol)


def test_cg_random_vs_dense_lu():
    rng = np.random.default_rng(42)
    H = rng.standard_normal((10, 10))
    gamma = 0.3
    rhs = rng.standard_normal(10)
    z, _ = cg_solve_regularized(stacked_model(H), gamma, rhs, tol=1e-14)
    oracle = np.linalg.solve(np.eye(10) + gamma * H.T @ H, rhs)
    assert np.max(np.abs(z - oracle)) < 1e-9


def test_cg_complex_operator_real_system():
    rng = np.random.default_rng(5)
    H = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    gamma = 0.7
    rhs = rng.standard_normal(6)
    z, _ = cg_solve_regularized(stacked_model(H), gamma, rhs, tol=1e-14)
    oracle = np.linalg.solve(np.eye(6) + gamma * np.real(H.conj().T @ H), rhs)
    assert np.max(np.abs(z - oracle)) < 1e-9


def test_cg_info_reports_convergence():
    rng = np.random.default_rng(1)
    H = rng.standard_normal((8, 8))
    # the default tolerance is the data prox's policy, 1e-12
    _, info = cg_solve_regularized(stacked_model(H), 0.2,
                                   rng.standard_normal(8))
    assert info.converged
    assert info.relative_residual <= 1e-12


def test_cg_stall_is_reported_by_info_alone(caplog):
    # a stalled solve also logged a warning, which Python's last-resort
    # handler printed to the CLI's stderr next to the trace's warning
    rng = np.random.default_rng(2)
    H = rng.standard_normal((8, 8))
    _, info = cg_solve_regularized(stacked_model(H), 0.2,
                                   rng.standard_normal(8), tol=1e-12,
                                   max_iter=1)
    assert not info.converged and info.iterations == 1
    assert caplog.records == []


def reference_cg(model, gamma, rhs, tol=1e-12, max_iter=None):
    """CG from zero as the package ran it before it took an initial guess:
    the bitwise oracle of the cold start."""
    if max_iter is None:
        max_iter = 10 * model.n
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0
    z = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = float(r @ r)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ap = p + gamma * model.gram_apply(p)
        alpha = rs / float(p @ ap)
        z = z + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol * rhs_norm:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return z, iterations


def test_cg_cold_start_is_bit_identical_to_reference(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    rhs = np.random.default_rng(3).standard_normal(model.n)
    for tol in (1e-12, 1e-6):
        oracle, iterations = reference_cg(model, gamma, rhs, tol=tol)
        z, info = cg_solve_regularized(model, gamma, rhs, tol=tol, x0=None)
        assert np.array_equal(z, oracle)
        assert info.iterations == iterations and info.converged


def test_cg_from_the_solution_runs_no_iteration():
    rng = np.random.default_rng(4)
    H = rng.standard_normal((12, 10))
    gamma = 0.3
    rhs = rng.standard_normal(10)
    solution = np.linalg.solve(np.eye(10) + gamma * H.T @ H, rhs)
    z, info = cg_solve_regularized(stacked_model(H), gamma, rhs, x0=solution)
    assert info.converged and info.iterations == 0
    assert np.array_equal(z, solution)
    assert info.relative_residual <= 1e-12


def test_cg_from_any_guess_reaches_the_cold_start_solution(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(model.n)
    cold, _ = cg_solve_regularized(model, gamma, rhs)
    for x0 in (rng.standard_normal(model.n), 1e3 * rng.standard_normal(model.n),
               cold + 1e-6 * rng.standard_normal(model.n)):
        z, info = cg_solve_regularized(model, gamma, rhs, x0=x0)
        assert info.converged and info.relative_residual <= 1e-12
        assert np.linalg.norm(z - cold) <= 1e-10 * np.linalg.norm(cold)
    # the guess is not modified
    x0 = rng.standard_normal(model.n)
    kept = x0.copy()
    cg_solve_regularized(model, gamma, rhs, x0=x0)
    assert np.array_equal(x0, kept)


def test_cg_residual_is_that_of_the_returned_solution(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    rhs = np.random.default_rng(6).standard_normal(model.n)
    for x0 in (None, np.ones(model.n)):
        z, info = cg_solve_regularized(model, gamma, rhs, x0=x0)
        true = rhs - (z + gamma * model.gram_apply(z))
        assert np.linalg.norm(info.residual - true) <= 1e-14 * np.linalg.norm(rhs)


def test_cg_x0_of_another_length_is_a_config_error():
    with pytest.raises(ConfigurationError, match="x0 length"):
        cg_solve_regularized(stacked_model(np.eye(3)), 1.0, np.ones(3),
                             x0=np.ones(4))


def test_cg_stops_at_a_non_finite_residual(small_dt_model):
    # an overflowing step used to run all 10 n iterations on NaN (10 240,
    # 4 s, at 32 x 32) and return a NaN solution
    model, _ = small_dt_model
    with np.errstate(over="ignore", invalid="ignore"):
        z, info = prox_datafit(model, 1e300, np.zeros(model.n))
        assert not info.converged and info.iterations <= 1
        assert math.isnan(info.relative_residual)
        # a finite rhs whose steps overflow a few iterations in
        z, info = cg_solve_regularized(model, 1e300, np.ones(model.n))
        assert not info.converged and info.iterations <= 20
        assert math.isnan(info.relative_residual)
        assert np.all(np.isfinite(z))
        rhs = np.ones(model.n)
        rhs[3] = math.nan
        for x0 in (None, np.zeros(model.n)):
            _, info = cg_solve_regularized(model, 0.5, rhs, x0=x0)
            assert not info.converged and info.iterations == 0
            assert math.isnan(info.relative_residual)
        _, info = cg_solve_regularized(model, 0.5, np.ones(model.n),
                                       x0=np.full(model.n, math.inf))
        assert not info.converged and info.iterations == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_adjoint_consistency_property(n, seed):
    rng = np.random.default_rng(seed)
    # on real x: Re <y, H x> = <sum_i Re(H_i^H y_i), x>
    H = rng.standard_normal((n + 1, n)) + 1j * rng.standard_normal((n + 1, n))
    model = stacked_model(H)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    lhs = np.vdot(y, model.apply(x)[0]).real
    rhs = model.adjoint_sum(y[None]) @ x
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
    assert np.allclose(model.apply(x)[0], H @ x, rtol=1e-13, atol=1e-13)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_gram_apply_matches_adjoint_of_apply(n, seed):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((n + 2, n))
    model = stacked_model(H)
    x = rng.standard_normal(n)
    assert np.allclose(model.gram_apply(x),
                       model.adjoint_sum(model.apply(x)), atol=1e-12)
    assert np.allclose(model.gram_apply(x), H.T @ (H @ x), atol=1e-12)
