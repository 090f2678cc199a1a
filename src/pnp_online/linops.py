"""Spectral bounds and the regularized normal-equations solve.

Measurement operators may map real images to complex measurement vectors;
gradients and normal-equation solves take the real part of Hermitian
products, which is equivalent to identifying C^m with R^{2m}.
"""

import math
from dataclasses import dataclass

import numpy as np

from pnp_online.errors import ConfigurationError

# Columns per chunk in `smaller_gram`: bounds its temporaries at (M, chunk).
_GRAM_CHUNK = 256
# The squaring stops once a step's term in the log of the bound is below
# this, which bounds the bound's excess over lambda_max by the same amount.
_SQUARING_TOL = 1e-16
# CG's default stop: a relative residual of 1e-12, the one owner of the
# number for `cg_solve_regularized`, `forward.prox_datafit` and the floor
# of the ADMM loop's tolerance schedule.
CG_TOL = 1e-12


def smaller_gram(columns, shape):
    """The smaller of H H^H and H^H H, H = columns(slice(None)) of `shape`.

    A wide H sums H_c H_c^H over column chunks H_c = columns(slice), which
    keeps the temporaries at (M, chunk) instead of a full copy of H.
    """
    rows, cols = shape
    if cols < rows:
        h = columns(slice(None))
        return h.conj().T @ h
    gram = 0.0
    for lo in range(0, cols, _GRAM_CHUNK):
        block = columns(slice(lo, min(lo + _GRAM_CHUNK, cols)))
        gram = gram + block @ block.conj().T
    return gram


def lambda_max_bound(columns, shape):
    """Certified upper bound on lambda_max(H^H H) = ||H||_2^2.

    `columns(cols)` returns the columns `cols` (a slice) of H, whose shape
    is `shape`. The bound comes from the p x p Gram G, the smaller of H H^H
    and H^H H, by repeated squaring: with A_0 = G / tr(G) and
    A_k = A_{k-1}^2 / c_k, c_k = tr(A_{k-1}^2), every partial product
    tr(G) * prod_{j<=k} c_j^(1/2^j) = tr(G^(2^k))^(1/2^k) is at least
    lambda_max. The c_k never decrease, and the bound after step k exceeds
    lambda_max by at most the factor c_{k+1}^(-1/2^k), so stopping when
    |log c_k| / 2^k < 1e-16 leaves an excess below 1e-16 in exact
    arithmetic. Each squaring is one matrix product (no eigensolver), and
    the squares are kept exactly Hermitian.

    Rounding is covered by the factor 1 + 2 p (p + q) eps, q the larger
    dimension: the first-order worst-case relative error of the Gram
    product (p q u, since lambda_max >= tr(G) / p) plus that of all the
    squarings (p^2 u), with u = eps / 2 and a factor 4 for complex
    arithmetic. A zero H gives exactly 0.
    """
    gram = smaller_gram(columns, shape)
    trace = float(np.trace(gram).real)
    if trace == 0.0:
        return 0.0
    a = gram / trace
    log_bound = 0.0
    # c_k >= 1/p, so |log c_k| / 2^k < 1e-16 holds by k = 63 for any p
    for k in range(1, 64):
        a = a @ a
        a = 0.5 * (a + a.conj().T)
        c = float(np.trace(a).real)
        term = math.log(c) / 2.0 ** k
        log_bound += term
        if abs(term) < _SQUARING_TOL:
            break
        a /= c
    return trace * math.exp(log_bound) * (1.0 + rounding_margin(shape))


def rounding_margin(shape):
    """The relative margin 2 p (p + q) eps of `lambda_max_bound`."""
    p, q = min(shape), max(shape)
    return 2.0 * p * (p + q) * np.finfo(float).eps


@dataclass
class SpectralEstimate:
    """Rayleigh-quotient estimate of lambda_max(H^H H)."""

    value: float
    iterations_used: int
    residual: float


# Nothing in the package calls this: perfbench/tracer.py patches this
# binding and its imports in forward, modelio and cli, and goes with it.
def power_iteration_lipschitz(gram_apply, n, tol=1e-8, max_iter=5000, seed=0):
    """Estimate lambda_max of the Gram matvec `gram_apply` on R^n (or C^n).

    Iterates v <- G v with normalization; the returned value is the
    Rayleigh quotient at the last iterate, a lower bound on the true
    lambda_max up to the reported residual (relative change between the last
    two estimates). Measurement models use `lambda_max_bound` instead.
    """
    if n <= 0:
        raise ConfigurationError("operator dimension must be positive")
    if tol <= 0:
        raise ConfigurationError("tol must be positive")
    if max_iter < 1:
        raise ConfigurationError("max_iter must be >= 1")

    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, size=n)
    v = v / np.linalg.norm(v)

    value = 0.0
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w = gram_apply(v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            # Zero operator (or v in the null space of a zero Gram matrix).
            return SpectralEstimate(value=0.0, iterations_used=iterations,
                                    residual=0.0)
        new_value = float(np.real(np.vdot(v, w)))
        residual = abs(new_value - value) / max(abs(new_value), np.finfo(float).tiny)
        value = new_value
        v = w / norm_w
        if residual <= tol:
            break
    return SpectralEstimate(value=value, iterations_used=iterations,
                            residual=residual)


@dataclass
class CgInfo:
    """How one CG solve went (`cg_solve_regularized`)."""

    converged: bool
    iterations: int
    relative_residual: float
    residual: np.ndarray | None = None


def cg_solve_regularized(model, gamma, rhs, tol=CG_TOL, max_iter=None,
                         x0=None):
    """Solve (I + gamma * G) z = rhs by conjugate gradients, G = model's Gram.

    G x is `model.gram_apply(x)`, the real, symmetric positive semidefinite
    averaged Gram (1/I) sum_i Re(H_i^H H_i) of a `MeasurementModel` on R^n,
    n = `model.n`. The system is then positive definite for any gamma > 0,
    so plain CG applies. Returns (z, CgInfo). CG stops once the relative
    residual ||r|| / ||rhs|| is at most `tol`, which must lie in [0, 1)
    (`CG_TOL` by default), or after `max_iter` iterations (10 n by
    default).

    CG starts at zero, or at the initial guess `x0`, whose true residual
    rhs - (x0 + gamma G x0) costs one Gram matvec; a guess that already
    meets the tolerance is returned with 0 iterations. A residual, a norm
    of rhs or a step's curvature p . (p + gamma G p) that is not finite
    (an overflow, or a NaN in rhs or x0) stops the solve at once, not
    converged, with a NaN relative residual. A nonzero rhs with
    ||rhs|| < 2^-511 / tol (2^-511 at tol = 0), whose squared norm or
    squared stopping residual would fall below the least normal double, is
    solved scaled by a power of two, which CG carries exactly.
    CgInfo.residual is the last residual rhs - (z + gamma G z) the solve
    formed, the recursive one once it has run an iteration.
    """
    rhs = np.asarray(rhs, dtype=float)
    if gamma <= 0:
        raise ConfigurationError("gamma must be positive")
    if not 0.0 <= tol < 1.0:
        raise ConfigurationError("tol must lie in [0, 1)")
    if rhs.shape != (model.n,):
        raise ConfigurationError("rhs length must match the model's n")
    if max_iter is None:
        max_iter = 10 * model.n

    def matvec(z):
        return z + gamma * model.gram_apply(z)

    if not rhs.any():
        return np.zeros_like(rhs), CgInfo(converged=True, iterations=0,
                                          relative_residual=0.0,
                                          residual=np.zeros_like(rhs))
    rhs_norm = np.linalg.norm(rhs)
    exponent = 0
    # below it, the squared stopping residual (tol ||rhs||)^2, or rhs . rhs
    # at tol = 0, is less than the least normal double
    if rhs_norm < (2.0 ** -511 / tol if tol else 2.0 ** -511):
        exponent = math.frexp(np.abs(rhs).max())[1]
        rhs = np.ldexp(rhs, -exponent)
        rhs_norm = np.linalg.norm(rhs)
        x0 = None if x0 is None else np.ldexp(x0, -exponent)

    if x0 is None:
        z = np.zeros_like(rhs)
        r = rhs.copy()
    else:
        z = np.array(x0, dtype=float)
        if z.shape != rhs.shape:
            raise ConfigurationError("x0 length must match the model's n")
        r = rhs - matvec(z)
    rs = float(r @ r)
    finite = math.isfinite(rs) and math.isfinite(rhs_norm)
    converged = finite and bool(np.sqrt(rs) <= tol * rhs_norm)
    iterations = 0
    if finite and not converged:
        p = r.copy()
        for iterations in range(1, max_iter + 1):
            ap = matvec(p)
            curvature = float(p @ ap)
            if not math.isfinite(curvature):
                finite = False
                break
            alpha = rs / curvature
            z = z + alpha * p
            r = r - alpha * ap
            rs_new = float(r @ r)
            if not math.isfinite(rs_new):
                finite = False
                break
            if np.sqrt(rs_new) <= tol * rhs_norm:
                rs = rs_new
                converged = True
                break
            p = r + (rs_new / rs) * p
            rs = rs_new
    relative = float(np.sqrt(rs) / rhs_norm) if finite else math.nan
    if exponent:
        z, r = np.ldexp(z, exponent), np.ldexp(r, exponent)
    return z, CgInfo(converged=converged, iterations=iterations,
                     relative_residual=relative, residual=r)
