"""Spectral bounds and regularized CG against dense oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnp_online.forward import BornComponentOperator
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
    model, _ = small_dt_model
    rng = np.random.default_rng(2)
    for u in model.incident:
        op = BornComponentOperator(model.scattering, u)
        y = rng.standard_normal(model.M) + 1j * rng.standard_normal(model.M)
        expected = (model.scattering * u).conj().T @ y
        assert np.allclose(op.adjoint_apply(y), expected, rtol=1e-13,
                           atol=1e-13 * np.max(np.abs(expected)))


def test_cg_zero_operator_returns_rhs():
    rhs = np.arange(4.0)
    z = cg_solve_regularized(stacked_model(np.zeros((4, 4))), 0.5, rhs)
    assert np.array_equal(z, rhs)


def test_cg_identity_halves_rhs():
    rhs = np.linspace(-1.0, 1.0, 5)
    z = cg_solve_regularized(stacked_model(np.eye(5)), 1.0, rhs)
    assert np.allclose(z, rhs / 2.0, atol=1e-12)


def test_cg_random_vs_dense_lu():
    rng = np.random.default_rng(42)
    H = rng.standard_normal((10, 10))
    gamma = 0.3
    rhs = rng.standard_normal(10)
    z = cg_solve_regularized(stacked_model(H), gamma, rhs, tol=1e-14)
    oracle = np.linalg.solve(np.eye(10) + gamma * H.T @ H, rhs)
    assert np.max(np.abs(z - oracle)) < 1e-9


def test_cg_complex_operator_real_system():
    rng = np.random.default_rng(5)
    H = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    gamma = 0.7
    rhs = rng.standard_normal(6)
    z = cg_solve_regularized(stacked_model(H), gamma, rhs, tol=1e-14)
    oracle = np.linalg.solve(np.eye(6) + gamma * np.real(H.conj().T @ H), rhs)
    assert np.max(np.abs(z - oracle)) < 1e-9


def test_cg_info_reports_convergence():
    rng = np.random.default_rng(1)
    H = rng.standard_normal((8, 8))
    z, info = cg_solve_regularized(stacked_model(H), 0.2,
                                   rng.standard_normal(8), tol=1e-12,
                                   return_info=True)
    assert info.converged
    assert info.relative_residual <= 1e-12


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
