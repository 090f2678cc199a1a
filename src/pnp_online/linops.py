"""Matrix-free linear operators, spectral norm estimation, regularized solves.

Operators may map real images to complex measurement vectors; gradients and
normal-equation solves take the real part of Hermitian products, which is
equivalent to identifying C^m with R^{2m}.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from pnp_online.errors import ConfigurationError

logger = logging.getLogger(__name__)

# Columns per chunk in `output_gram`: bounds its temporaries at (M, chunk).
_GRAM_CHUNK = 256


class LinearOperator:
    """A linear map R^n (or C^n) -> C^m with an explicit adjoint."""

    input_dim: int
    output_dim: int

    def apply(self, x):
        raise NotImplementedError

    def adjoint_apply(self, y):
        raise NotImplementedError

    def gram_apply(self, x):
        """H^H H x, the normal-equations matvec."""
        return self.adjoint_apply(self.apply(x))

    def output_gram(self):
        """H H^H as a dense (output_dim, output_dim) array; None if matrix-free."""
        return None


def output_gram(columns, input_dim):
    """H H^H as sum_c H_c H_c^H over column chunks H_c = columns(slice).

    Summing chunks keeps the temporaries at (M, chunk) instead of a full
    copy of H and of its conjugate.
    """
    gram = 0.0
    for lo in range(0, input_dim, _GRAM_CHUNK):
        block = columns(slice(lo, min(lo + _GRAM_CHUNK, input_dim)))
        gram = gram + block @ block.conj().T
    return gram


class MatrixOperator(LinearOperator):
    """Dense matrix wrapped as an operator."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ConfigurationError("matrix operator needs a 2D array")
        self.matrix = matrix
        self.output_dim, self.input_dim = matrix.shape

    def apply(self, x):
        return self.matrix @ x

    def adjoint_apply(self, y):
        return self.matrix.conj().T @ y

    def output_gram(self):
        matrix = self.matrix
        return output_gram(lambda cols: matrix[:, cols], self.input_dim)


@dataclass
class SpectralEstimate:
    """Rayleigh-quotient estimate of lambda_max(H^H H)."""

    value: float
    iterations_used: int
    residual: float


def power_iteration_lipschitz(op, tol=1e-8, max_iter=5000, seed=0):
    """Estimate the squared largest singular value of `op` by power iteration.

    Iterates v <- H^H H v with normalization; the returned value is the
    Rayleigh quotient at the last iterate, a lower bound on the true
    lambda_max up to the reported residual (relative change between the last
    two estimates).

    A wide dense operator (output_dim < input_dim with an `output_gram`)
    runs the same iteration on s = H v in the smaller output space: with
    G = H H^H, the Rayleigh quotient is ||s||^2, ||H^H H v||^2 = s^H G s and
    the next s is G s / ||H^H H v||. The iterates, the residuals and the
    stopping step are those of the input-space loop, up to rounding.
    """
    if op.input_dim <= 0 or op.output_dim <= 0:
        raise ConfigurationError("operator dimensions must be positive")
    if tol <= 0:
        raise ConfigurationError("tol must be positive")
    if max_iter < 1:
        raise ConfigurationError("max_iter must be >= 1")

    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, size=op.input_dim)
    v = v / np.linalg.norm(v)

    gram = op.output_gram() if op.output_dim < op.input_dim else None
    # Each step returns (H^H H v, or G s), ||H^H H v|| and the Rayleigh quotient.
    if gram is None:
        def step(v):
            w = op.gram_apply(v)
            return w, np.linalg.norm(w), float(np.real(np.vdot(v, w)))
        state = v
    else:
        def step(s):
            gs = gram @ s
            return (gs, math.sqrt(max(float(np.real(np.vdot(s, gs))), 0.0)),
                    float(np.real(np.vdot(s, s))))
        state = op.apply(v)

    value = 0.0
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w, norm_w, new_value = step(state)
        if norm_w == 0.0:
            # Zero operator (or v in the null space of a zero Gram matrix).
            return SpectralEstimate(value=0.0, iterations_used=iterations,
                                    residual=0.0)
        residual = abs(new_value - value) / max(abs(new_value), np.finfo(float).tiny)
        value = new_value
        state = w / norm_w
        if residual <= tol:
            break
    return SpectralEstimate(value=value, iterations_used=iterations,
                            residual=residual)


@dataclass
class CgInfo:
    converged: bool
    iterations: int
    relative_residual: float


def cg_solve_regularized(op, gamma, rhs, tol=1e-10, max_iter=None,
                         return_info=False):
    """Solve (I + gamma * Re(H^H H)) z = rhs by conjugate gradients.

    The system is symmetric positive definite for any gamma > 0, so plain CG
    applies. On real inputs with a complex operator the real part of the
    Gram product is used, matching the gradient convention.
    """
    rhs = np.asarray(rhs, dtype=float)
    if gamma <= 0:
        raise ConfigurationError("gamma must be positive")
    if rhs.shape != (op.input_dim,):
        raise ConfigurationError("rhs length must match operator input_dim")
    if max_iter is None:
        max_iter = 10 * op.input_dim

    def matvec(z):
        return z + gamma * np.real(op.gram_apply(z))

    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        z = np.zeros_like(rhs)
        info = CgInfo(converged=True, iterations=0, relative_residual=0.0)
        return (z, info) if return_info else z

    z = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = float(r @ r)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ap = matvec(p)
        alpha = rs / float(p @ ap)
        z = z + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol * rhs_norm:
            rs = rs_new
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new

    rel_res = float(np.sqrt(rs) / rhs_norm)
    if not converged:
        logger.warning("CG did not reach tol=%.2e in %d iterations "
                       "(relative residual %.2e)", tol, max_iter, rel_res)
    info = CgInfo(converged=converged, iterations=iterations,
                  relative_residual=rel_res)
    return (z, info) if return_info else z
