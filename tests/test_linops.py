"""Operator core: power iteration and regularized CG against dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnp_online.linops import (LinearOperator, MatrixOperator,
                               cg_solve_regularized,
                               power_iteration_lipschitz)


class MatrixFree(LinearOperator):
    """Hides a dense operator's output_gram, forcing the input-space loop."""

    def __init__(self, op):
        self.op = op
        self.input_dim, self.output_dim = op.input_dim, op.output_dim

    def apply(self, x):
        return self.op.apply(x)

    def adjoint_apply(self, y):
        return self.op.adjoint_apply(y)


def test_power_iteration_diagonal():
    op = MatrixOperator(np.diag([1.0, 2.0]))
    est = power_iteration_lipschitz(op)
    assert est.value == pytest.approx(4.0, abs=1e-9)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_power_iteration_identity(n):
    op = MatrixOperator(np.eye(n))
    est = power_iteration_lipschitz(op)
    assert est.value == pytest.approx(1.0, abs=1e-10)


def test_power_iteration_random_complex_vs_dense_eig():
    rng = np.random.default_rng(7)
    H = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
    op = MatrixOperator(H)
    est = power_iteration_lipschitz(op)
    oracle = float(np.max(np.linalg.eigvalsh(H.conj().T @ H)))
    assert est.value == pytest.approx(oracle, rel=1e-8)


def test_power_iteration_zero_operator():
    op = MatrixOperator(np.zeros((4, 4)))
    est = power_iteration_lipschitz(op)
    assert est.value == 0.0
    assert est.residual == 0.0


def test_power_iteration_deterministic():
    rng = np.random.default_rng(0)
    H = rng.standard_normal((5, 5))
    op = MatrixOperator(H)
    a = power_iteration_lipschitz(op, seed=11)
    b = power_iteration_lipschitz(op, seed=11)
    assert a.value == b.value
    assert a.iterations_used == b.iterations_used


def _wide_complex_operator():
    rng = np.random.default_rng(3)
    return MatrixOperator(rng.standard_normal((6, 40))
                          + 1j * rng.standard_normal((6, 40)))


@pytest.mark.parametrize("n", [40, 300])
def test_output_gram_matches_dense_product(n):
    # 300 columns leave an uneven last chunk
    rng = np.random.default_rng(3)
    H = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
    assert np.allclose(MatrixOperator(H).output_gram(), H @ H.conj().T,
                       rtol=1e-13, atol=1e-12)


def test_matrix_free_operator_has_no_output_gram():
    assert MatrixFree(_wide_complex_operator()).output_gram() is None


@pytest.mark.parametrize("seed", [0, 5])
def test_output_space_power_iteration_matches_input_space(seed):
    op = _wide_complex_operator()
    fast = power_iteration_lipschitz(op, seed=seed)
    slow = power_iteration_lipschitz(MatrixFree(op), seed=seed)
    assert fast.iterations_used == slow.iterations_used
    assert fast.value == pytest.approx(slow.value, rel=1e-12)
    oracle = float(np.max(np.linalg.eigvalsh(op.matrix @ op.matrix.conj().T)))
    assert fast.value == pytest.approx(oracle, rel=1e-8)


def test_output_space_power_iteration_on_dt_component(small_dt_model):
    model, _ = small_dt_model
    for op, _ in model.components:
        assert op.output_dim < op.input_dim
        fast = power_iteration_lipschitz(op, seed=model.seed)
        slow = power_iteration_lipschitz(MatrixFree(op), seed=model.seed)
        assert fast.iterations_used == slow.iterations_used
        assert fast.value == pytest.approx(slow.value, rel=1e-12)


def test_output_space_power_iteration_zero_operator():
    est = power_iteration_lipschitz(MatrixOperator(np.zeros((3, 8))))
    assert est.value == 0.0
    assert est.residual == 0.0
    assert est.iterations_used == 1


def test_born_adjoint_matches_conjugate_transpose(small_dt_model):
    model, _ = small_dt_model
    rng = np.random.default_rng(2)
    for op, _ in model.components:
        y = (rng.standard_normal(op.output_dim)
             + 1j * rng.standard_normal(op.output_dim))
        expected = op.incident_field.conj() * (op.scattering.conj().T @ y)
        assert np.allclose(op.adjoint_apply(y), expected, rtol=1e-13,
                           atol=1e-13 * np.max(np.abs(expected)))


def test_cg_zero_operator_returns_rhs():
    op = MatrixOperator(np.zeros((4, 4)))
    rhs = np.arange(4.0)
    z = cg_solve_regularized(op, 0.5, rhs)
    assert np.array_equal(z, rhs)


def test_cg_identity_halves_rhs():
    op = MatrixOperator(np.eye(5))
    rhs = np.linspace(-1.0, 1.0, 5)
    z = cg_solve_regularized(op, 1.0, rhs)
    assert np.allclose(z, rhs / 2.0, atol=1e-12)


def test_cg_random_vs_dense_lu():
    rng = np.random.default_rng(42)
    H = rng.standard_normal((10, 10))
    gamma = 0.3
    rhs = rng.standard_normal(10)
    z = cg_solve_regularized(MatrixOperator(H), gamma, rhs, tol=1e-14)
    oracle = np.linalg.solve(np.eye(10) + gamma * H.T @ H, rhs)
    assert np.max(np.abs(z - oracle)) < 1e-9


def test_cg_complex_operator_real_system():
    rng = np.random.default_rng(5)
    H = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    gamma = 0.7
    rhs = rng.standard_normal(6)
    z = cg_solve_regularized(MatrixOperator(H), gamma, rhs, tol=1e-14)
    oracle = np.linalg.solve(np.eye(6) + gamma * np.real(H.conj().T @ H), rhs)
    assert np.max(np.abs(z - oracle)) < 1e-9


def test_cg_info_reports_convergence():
    rng = np.random.default_rng(1)
    H = rng.standard_normal((8, 8))
    z, info = cg_solve_regularized(MatrixOperator(H), 0.2,
                                   rng.standard_normal(8), tol=1e-12,
                                   return_info=True)
    assert info.converged
    assert info.relative_residual <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_adjoint_consistency_property(n, seed):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((n + 1, n)) + 1j * rng.standard_normal((n + 1, n))
    op = MatrixOperator(H)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    lhs = np.vdot(y, op.apply(x))
    rhs = np.vdot(op.adjoint_apply(y), x)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_gram_apply_matches_adjoint_of_apply(n, seed):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((n + 2, n))
    op = MatrixOperator(H)
    x = rng.standard_normal(n)
    assert np.allclose(op.gram_apply(x), op.adjoint_apply(op.apply(x)),
                       atol=1e-12)
