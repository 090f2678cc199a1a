"""Denoisers: TV prox vs dual-QP oracle, filter spectrum, certificates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pnp_online.denoisers import (AveragedFilterDenoiser, DampedDenoiser,
                                  IdentityDenoiser, ShiftDenoiser, TvInfo,
                                  TvProxDenoiser, _grad2d,
                                  averaged_linear_filter, certify_averaged,
                                  certify_pair,
                                  estimate_bounded_constant, shift_denoiser,
                                  tv_objective, tv_prox)
from pnp_online.errors import ConfigurationError

scipy_optimize = pytest.importorskip("scipy.optimize")


def _div2d(px, py):
    """Negative adjoint of _grad2d: <grad u, p> = -<u, div p>."""
    div = np.zeros_like(px)
    if px.shape[1] >= 2:
        div[:, 0] = px[:, 0]
        div[:, 1:-1] = px[:, 1:-1] - px[:, :-2]
        div[:, -1] = -px[:, -2]
    if py.shape[0] >= 2:
        div[0, :] += py[0, :]
        div[1:-1, :] += py[1:-1, :] - py[:-2, :]
        div[-1, :] += -py[-2, :]
    return div


def reference_tv_prox(z, lambda_scaled, inner_iters=200, inner_tol=1e-12):
    """The textbook FGP loop: a fresh array for every step.

    tv_prox must reproduce it bit for bit; it is the oracle for the
    preallocated padded-buffer kernel, not a second implementation to use.
    """
    z = np.asarray(z, dtype=float)
    if lambda_scaled == 0.0:
        return z.copy()
    lam = lambda_scaled
    px = np.zeros_like(z)
    py = np.zeros_like(z)
    qx, qy = px, py
    tau = 0.125
    q_prev = 1.0
    for _ in range(inner_iters):
        x = z + _div2d(qx, qy)
        gx, gy = _grad2d(x)
        nx = qx + tau * gx
        ny = qy + tau * gy
        px_new = np.clip(nx, -lam, lam)
        py_new = np.clip(ny, -lam, lam)
        q_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * q_prev * q_prev))
        beta = (q_prev - 1.0) / q_new
        qx = px_new + beta * (px_new - px)
        qy = py_new + beta * (py_new - py)
        px, py = px_new, py_new
        q_prev = q_new

        x = z + _div2d(px, py)
        gx, gy = _grad2d(x)
        penalty = lam * float(np.sum(np.abs(gx)) + np.sum(np.abs(gy)))
        gap = penalty - float(np.sum(px * gx) + np.sum(py * gy))
        if gap <= inner_tol:
            break
    return z + _div2d(px, py)


def oracle_tv_prox(z, lam):
    """Independent high-accuracy prox: L-BFGS-B on the smooth dual QP."""
    shape = z.shape

    def f(pf):
        px = pf[:z.size].reshape(shape)
        py = pf[z.size:].reshape(shape)
        atp = -_div2d(px, py)                     # A^T p
        gx, gy = _grad2d(z)
        value = 0.5 * np.sum(atp ** 2) - np.sum(px * gx) - np.sum(py * gy)
        ggx, ggy = _grad2d(atp)
        grad = np.concatenate([(ggx - gx).ravel(), (ggy - gy).ravel()])
        return value, grad

    res = scipy_optimize.minimize(
        f, np.zeros(2 * z.size), jac=True, method="L-BFGS-B",
        bounds=[(-lam, lam)] * (2 * z.size),
        options={"maxiter": 20000, "ftol": 1e-18, "gtol": 1e-14})
    px = res.x[:z.size].reshape(shape)
    py = res.x[z.size:].reshape(shape)
    return z + _div2d(px, py)


# --------------------------------------------------------------- gradient op

def test_grad_div_adjointness():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((7, 5))
    px, py = rng.standard_normal((2, 7, 5))
    gx, gy = _grad2d(u)
    lhs = np.sum(gx * px) + np.sum(gy * py)
    rhs = -np.sum(u * _div2d(px, py))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------------ TV prox

def test_tv_prox_constant_unchanged():
    z = np.full((6, 6), 3.25)
    assert np.allclose(tv_prox(z, 0.7), z, atol=1e-12)


def test_tv_prox_zero_lambda_identity():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((5, 5))
    assert np.array_equal(tv_prox(z, 0.0), z)


@pytest.mark.parametrize("a,b,lam", [(0.0, 1.0, 0.2), (0.0, 1.0, 0.6),
                                     (2.0, -1.0, 0.4), (1.0, 1.0, 0.3)])
def test_tv_prox_two_pixel_closed_form(a, b, lam):
    # penalty lam*|x1 - x2|: move both ends toward each other by
    # s = min(lam, |a-b|/2)
    z = np.array([[a, b]])
    s = np.sign(a - b) * min(lam, abs(a - b) / 2.0)
    expected = np.array([[a - s, b + s]])
    out = tv_prox(z, lam, inner_iters=5000, inner_tol=0.0)
    assert np.allclose(out, expected, atol=1e-9)


def test_tv_prox_two_pixel_grid_search():
    z = np.array([[0.0, 1.0]])
    lam = 0.2
    grid = np.linspace(-0.5, 1.5, 2001)
    best = min(((x1, x2) for x1 in grid for x2 in grid),
               key=lambda p: 0.5 * ((p[0] - 0.0) ** 2 + (p[1] - 1.0) ** 2)
               + lam * abs(p[0] - p[1]))
    out = tv_prox(z, lam, inner_iters=5000, inner_tol=0.0)
    assert np.allclose(out, np.array([best]), atol=2e-3)


def test_tv_prox_objective_matches_long_run_oracle():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((8, 8))
    lam = 0.1
    ours = tv_prox(z, lam, inner_iters=100_000, inner_tol=0.0)
    oracle = oracle_tv_prox(z, lam)
    assert tv_objective(ours, z, lam) == pytest.approx(
        tv_objective(oracle, z, lam), rel=1e-8, abs=1e-8)
    assert np.max(np.abs(ours - oracle)) < 1e-6


@pytest.mark.parametrize("lam", [0.01, 0.3, 1.0])
def test_tv_prox_vs_dual_oracle(lam):
    rng = np.random.default_rng(2)
    z = rng.uniform(-1, 1, size=(6, 6))
    ours = tv_prox(z, lam, inner_iters=20_000, inner_tol=0.0)
    oracle = oracle_tv_prox(z, lam)
    assert np.max(np.abs(ours - oracle)) < 1e-7


SIDES = [1, 2, 3, 5, 8, 13, 32, 48]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SIDES), st.sampled_from(SIDES),
       st.sampled_from([0.0, 1e-5, 0.05, 1.0, math.inf]),
       st.sampled_from([0, 1, 5, 200]), st.sampled_from([0.0, 1e-12]),
       st.sampled_from([1.0, 0.05]), st.integers(0, 2**32 - 1))
@example(1, 1, math.inf, 200, 0.0, 1.0, 0)
@example(1, 48, 0.05, 200, 1e-12, 1.0, 1)
@example(48, 1, 0.05, 200, 0.0, 1.0, 2)
@example(2, 2, 1.0, 5, 0.0, 1.0, 3)
@example(48, 48, 1e-5, 200, 1e-12, 0.05, 4)
@example(32, 32, 0.05, 200, 1e-12, 0.05, 5)
# The benchmark operating points: sgd-tv (32^2) and setup-48 at their
# lambda = sigma^2, with z at the spread of a workload iterate
@example(32, 32, 1.1723e-5, 200, 1e-12, 0.02, 6)
@example(48, 48, 2.8011e-5, 200, 1e-12, 0.014, 7)
def test_tv_prox_bit_identical_to_reference(h, w, lam, iters, tol, scale,
                                            seed):
    z = np.random.default_rng(seed).standard_normal((h, w)) * scale
    before = z.copy()
    ours = tv_prox(z, lam, inner_iters=iters, inner_tol=tol)
    ref = reference_tv_prox(z, lam, inner_iters=iters, inner_tol=tol)
    assert ours.shape == (h, w) and ours.flags.c_contiguous
    assert np.array_equal(ours, ref)
    assert np.array_equal(z, before)
    with_info = tv_prox(z, lam, inner_iters=iters, inner_tol=tol,
                        return_info=True)[0]
    assert with_info.tobytes() == ours.tobytes()


def test_tv_prox_non_c_ordered_input_matches_reference():
    z = np.random.default_rng(6).standard_normal((9, 7))
    fortran = np.asfortranarray(z)
    assert np.array_equal(tv_prox(fortran, 0.05),
                          reference_tv_prox(z, 0.05))
    assert np.array_equal(tv_prox(z.T, 0.05),
                          reference_tv_prox(np.ascontiguousarray(z.T), 0.05))


def test_tv_prox_info_converged_two_pixel():
    z = np.array([[0.0, 1.0]])
    x, info = tv_prox(z, 0.2, inner_iters=5000, inner_tol=1e-12,
                      return_info=True)
    assert np.array_equal(x, tv_prox(z, 0.2, inner_iters=5000,
                                     inner_tol=1e-12))
    assert np.allclose(x, [[0.2, 0.8]], atol=1e-9)
    assert info.converged
    assert 1 <= info.iterations < 5000
    assert info.gap <= 1e-12


def test_tv_prox_info_reports_unconverged():
    z = np.random.default_rng(4).standard_normal((8, 8))
    x, info = tv_prox(z, 0.1, inner_iters=1, inner_tol=1e-12,
                      return_info=True)
    assert info == TvInfo(iterations=1, gap=info.gap, converged=False)
    assert info.gap > 1e-12
    assert np.array_equal(x, reference_tv_prox(z, 0.1, inner_iters=1,
                                               inner_tol=1e-12))


def test_tv_prox_info_without_iterations():
    z = np.random.default_rng(5).standard_normal((4, 4))
    assert tv_prox(z, 0.0, return_info=True)[1] == TvInfo(0, 0.0, True)
    x, info = tv_prox(z, 0.1, inner_iters=0, return_info=True)
    assert np.array_equal(x, z)
    assert info == TvInfo(0, math.inf, False)


def test_tv_prox_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        tv_prox(np.zeros(4), 0.1)
    with pytest.raises(ConfigurationError):
        tv_prox(np.zeros((4, 4)), -0.1)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=0.01, max_value=1.0))
def test_tv_prox_nonexpansive_property(seed, lam):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(6, 6))
    y = rng.uniform(-2, 2, size=(6, 6))
    dx = tv_prox(x, lam, inner_iters=2000, inner_tol=1e-13)
    dy = tv_prox(y, lam, inner_iters=2000, inner_tol=1e-13)
    assert np.sum((dx - dy) ** 2) <= np.sum((x - y) ** 2) + 1e-7


# ------------------------------------------------------------------- filter

def test_filter_constant_unchanged():
    z = np.full((8, 8), 1.5)
    assert np.allclose(averaged_linear_filter(z, 0.1), z, atol=1e-12)


def test_filter_zero_is_zero():
    assert np.all(averaged_linear_filter(np.zeros((5, 5)), 0.2) == 0)


def test_filter_reflection_is_nonexpansive():
    # 2W - I must have spectral norm <= 1 for W to be 1/2-averaged; the
    # dense 256 x 256 matrix of the symmetric 2W - I gives it exactly
    eye = np.eye(256)
    reflection = np.column_stack([
        2.0 * averaged_linear_filter(e.reshape(16, 16), 0.1).ravel() - e
        for e in eye])
    assert np.allclose(reflection, reflection.T, rtol=0, atol=1e-15)
    eigenvalues = np.linalg.eigvalsh(reflection)
    assert np.max(np.abs(eigenvalues)) <= 1.0 + 1e-12


def test_filter_passes_mapping():
    z = np.random.default_rng(0).standard_normal((6, 6))
    assert np.array_equal(averaged_linear_filter(z, 0.05),
                          averaged_linear_filter(z, 0.05, passes=1))
    assert np.array_equal(averaged_linear_filter(z, 0.2),
                          averaged_linear_filter(z, 0.2, passes=4))


def test_filter_rejects_bad_sigma():
    with pytest.raises(ConfigurationError):
        averaged_linear_filter(np.zeros((4, 4)), 0.0)


# ------------------------------------------------------------ shift denoiser

def test_shift_denoiser_zero_stays_zero():
    assert shift_denoiser(np.zeros((3, 3)), 0.5, 4.0).tolist() == \
        np.zeros((3, 3)).tolist()


def test_shift_denoiser_direct_formula():
    out = shift_denoiser(np.array([[1.0]]), 0.5, 4.0)
    assert out[0, 0] == 2.0


def test_shift_denoiser_boundedness_equality():
    rng = np.random.default_rng(0)
    z = rng.uniform(0.5, 2.0, size=(5, 5))      # no zero entries
    sigma, c = 0.3, 2.0
    out = shift_denoiser(z, sigma, c)
    assert np.sum((out - z) ** 2) / z.size == pytest.approx(
        sigma * sigma * c, rel=1e-12)


# ---------------------------------------------------------- damping wrapper

def test_damped_identity_is_identity():
    d = DampedDenoiser(IdentityDenoiser(), 0.5)
    z = np.random.default_rng(0).standard_normal((4, 4))
    assert np.allclose(d.denoise(z, 0.1), z, atol=1e-14)


def test_damping_preserves_fixed_points():
    base = TvProxDenoiser()
    damped = DampedDenoiser(base, 0.3)
    z = np.full((5, 5), 2.0)                     # constant: TV fixed point
    assert np.allclose(damped.denoise(z, 0.1), z, atol=1e-12)


def test_damped_reflection_maps_to_zero():
    class Reflect(IdentityDenoiser):
        def denoise(self, z, sigma):
            return -z

    damped = DampedDenoiser(Reflect(), 0.5)
    z = np.random.default_rng(1).standard_normal((4, 4))
    assert np.allclose(damped.denoise(z, 0.1), np.zeros_like(z), atol=1e-14)


def test_damping_rejects_bad_theta():
    with pytest.raises(ConfigurationError):
        DampedDenoiser(IdentityDenoiser(), 0.0)
    with pytest.raises(ConfigurationError):
        DampedDenoiser(IdentityDenoiser(), 1.5)


# -------------------------------------------------------------- certificates

def test_certify_identity_never_violates():
    cert = certify_averaged(IdentityDenoiser(), 0.7, 0.1, num_pairs=50,
                            shape=(6, 6))
    assert cert.passed
    assert cert.max_violation <= 1e-12


def test_certify_shift_denoiser_straddling_pair():
    # sigma*sqrt(c) = 1: D(0.1) - D(-0.1) = 2.2 while |x - y| = 0.2
    d = ShiftDenoiser(c=1.0)
    x = np.array([[0.1]])
    y = np.array([[-0.1]])
    dx = d.denoise(x, 1.0)
    dy = d.denoise(y, 1.0)
    assert dx[0, 0] == pytest.approx(1.1)
    assert dy[0, 0] == pytest.approx(-1.1)
    violation = certify_pair(d, 0.5, 1.0, x, y)
    assert violation > 1.0                       # gross violation


def test_certify_filter_thousand_pairs():
    cert = certify_averaged(AveragedFilterDenoiser(), 0.5, 0.1,
                            num_pairs=1000, shape=(16, 16))
    assert cert.passed
    assert cert.max_violation <= 1e-10


def test_certify_rejects_bad_alpha():
    with pytest.raises(ConfigurationError):
        certify_averaged(IdentityDenoiser(), 1.0, 0.1)


# ---------------------------------------------------------- bounded constant

def test_bounded_constant_identity_zero():
    assert estimate_bounded_constant(IdentityDenoiser(), 0.5,
                                     [np.ones((3, 3))]) == 0.0


@pytest.mark.parametrize("sigma", [0.0, -0.1])
def test_bounded_constant_rejects_nonpositive_sigma(sigma):
    # the estimate divides by sigma^2
    with pytest.raises(ConfigurationError):
        estimate_bounded_constant(IdentityDenoiser(), sigma, [np.ones((3, 3))])


def test_bounded_constant_shift_exact_c():
    d = ShiftDenoiser(c=3.0)
    samples = [np.full((4, 4), v) for v in (0.5, -1.0, 2.0)]
    assert estimate_bounded_constant(d, 0.7, samples) == pytest.approx(
        3.0, rel=1e-12)


def test_bounded_constant_tv_decreases_with_lambda():
    rng = np.random.default_rng(0)
    samples = [rng.uniform(0, 1, size=(8, 8))]
    d = TvProxDenoiser()
    strong = estimate_bounded_constant(d, 0.2, samples)
    weak = estimate_bounded_constant(d, 0.02, samples)
    assert np.isfinite(strong) and np.isfinite(weak)
    # residual ||D(x)-x||^2 shrinks faster than sigma^2 as sigma -> 0
    assert weak * 0.02 ** 2 < strong * 0.2 ** 2
