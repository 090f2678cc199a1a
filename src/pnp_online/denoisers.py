"""Denoisers for the plug-and-play slot, with averagedness certificates.

Shipped plug-ins are the anisotropic-TV proximal operator (a true proximal
operator, hence 1/2-averaged) and a symmetric unit-DC-gain convolution
filter whose spectrum lies in [0, 1] (also 1/2-averaged). The shift
denoiser is the bounded-but-divergent counter-example.
"""

import math
from dataclasses import dataclass

import numpy as np

from pnp_online.errors import ConfigurationError


def _grad2d(u):
    """Forward differences with Neumann boundary: last row/column zero."""
    dx = np.zeros_like(u)
    dy = np.zeros_like(u)
    dx[:, :-1] = u[:, 1:] - u[:, :-1]
    dy[:-1, :] = u[1:, :] - u[:-1, :]
    return dx, dy


@dataclass
class TvInfo:
    """How exactly one tv_prox call solved its dual problem."""

    iterations: int
    gap: float
    converged: bool


class _PaddedDual:
    """A dual pair (px, py) in one zero-padded (2, h+1, w+1) buffer.

    px[i, j] is buf[0, i, j+1] and py[i, j] is buf[1, i+1, j]: the column
    left of px and the row above py are zero padding, and under _grad2d's
    Neumann boundary the last column of px and the last row of py stay
    zero too (the `*_live` views leave them out). Read with a row length of
    w+1, pixel (i, j) is the flat index k = i(w+1) + j, and px[k] - px[k-1]
    and py[k] - py[k-(w+1)] become subtractions of contiguous slices
    (`*_flat` minus `*_prev`) over h(w+1) values, the last of each row zero.
    """

    def __init__(self, h, w):
        n = h * (w + 1)
        self.buf = np.zeros((2, h + 1, w + 1))
        flat_x, flat_y = self.buf.reshape(2, -1)
        self.px, self.py = self.buf[0, :h, 1:], self.buf[1, 1:, :w]
        self.px_live, self.py_live = self.buf[0, :h, 1:w], self.buf[1, 1:h, :w]
        self.px_flat, self.px_prev = flat_x[1:n + 1], flat_x[:n]
        self.py_flat, self.py_prev = flat_y[w + 1:n + w + 1], flat_y[:n]


def tv_prox(z, lambda_scaled, inner_iters=200, inner_tol=1e-10,
            isotropic=False, return_info=False):
    """Proximal operator of lambda_scaled * ||D x||_1 at the 2D array z.

    Accelerated dual projection (FGP, Beck & Teboulle 2009): projected FISTA
    on the dual variable p = (px, py) with step 1/8 (an upper bound on
    ||D||^2), returning x = z + div p once the duality gap is <= inner_tol
    or after inner_iters iterations. With return_info=True the result is
    (x, TvInfo): iterations run, the last gap (inf if none was evaluated)
    and whether it met inner_tol.

    The dual iterates, the momentum point and grad x live in zero-padded
    (2, h+1, w+1) buffers (_PaddedDual), and x and z in (h, w+1) arrays
    whose last column is zero, so div p is two contiguous shifted
    subtractions and an add, every step is a ufunc writing into a buffer
    allocated once per call, and the x of the last gap test is the result.
    The floating-point operations and their order are those of the
    textbook loop kept in the tests as the bitwise oracle, so for a
    C-ordered z the output is bit-identical to it; other layouts are
    copied to C order first.
    """
    z = np.ascontiguousarray(z, dtype=float)
    if z.ndim != 2:
        raise ConfigurationError("tv_prox expects a 2D array")
    if lambda_scaled < 0:
        raise ConfigurationError("lambda_scaled must be nonnegative")
    if lambda_scaled == 0.0:
        x, info = z.copy(), TvInfo(iterations=0, gap=0.0, converged=True)
        return (x, info) if return_info else x

    lam = lambda_scaled
    h, w = z.shape
    n = h * (w + 1)
    p, p_new, q, g = (_PaddedDual(h, w) for _ in range(4))
    x_pad = np.zeros((h, w + 1))
    z_pad = np.zeros((h, w + 1))
    z_pad[:, :w] = z
    x_flat, z_flat = x_pad.reshape(-1), z_pad.reshape(-1)
    t_flat = np.empty(n)
    gy_flat = g.buf[1].reshape(-1)[w + 1:n]   # gy rows 0..h-2, pad column too
    t1 = np.empty_like(z)
    t2 = np.empty_like(z)

    def div_plus_z(d):
        """x = z + div p, summed as the reference: x part + y part, then z."""
        np.subtract(d.px_flat, d.px_prev, out=x_flat)
        np.subtract(d.py_flat, d.py_prev, out=t_flat)
        np.add(x_flat, t_flat, out=x_flat)
        np.add(z_flat, x_flat, out=x_flat)

    def grad():
        np.subtract(x_pad[:, 1:w], x_pad[:, :w - 1], out=g.px_live)
        np.subtract(x_flat[w + 1:], x_flat[:n - w - 1], out=gy_flat)

    tau = 0.125
    q_prev = 1.0
    gap = math.inf
    done = 0
    while done < inner_iters:
        done += 1
        div_plus_z(q)
        grad()
        np.multiply(g.buf, tau, out=p_new.buf)
        np.add(q.buf, p_new.buf, out=p_new.buf)
        if isotropic and lam < math.inf:
            # at lam = inf the factor lam / max(|p|, lam) is inf / inf; the
            # projection is the identity there, as the clip below is
            np.multiply(p_new.px, p_new.px, out=t1)
            np.multiply(p_new.py, p_new.py, out=t2)
            np.add(t1, t2, out=t2)
            np.sqrt(t2, out=t2)
            np.maximum(t2, lam, out=t2)
            np.divide(lam, t2, out=t2)
            # scale the live entries only; the padding stays zero
            np.multiply(p_new.px_live, t2[:, :-1], out=p_new.px_live)
            np.multiply(p_new.py_live, t2[:-1, :], out=p_new.py_live)
        else:
            np.clip(p_new.buf, -lam, lam, out=p_new.buf)
        q_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * q_prev * q_prev))
        beta = (q_prev - 1.0) / q_new
        np.subtract(p_new.buf, p.buf, out=q.buf)
        np.multiply(q.buf, beta, out=q.buf)
        np.add(p_new.buf, q.buf, out=q.buf)
        p, p_new = p_new, p
        q_prev = q_new

        div_plus_z(p)
        grad()
        if isotropic:
            np.multiply(g.px, g.px, out=t1)
            np.multiply(g.py, g.py, out=t2)
            np.add(t1, t2, out=t1)
            penalty = lam * float(np.sqrt(t1, out=t1).sum())
        else:
            abs_x = np.abs(g.px, out=t1).sum()
            penalty = lam * float(abs_x + np.abs(g.py, out=t1).sum())
        pg_x = np.multiply(p.px, g.px, out=t1).sum()
        gap = penalty - float(pg_x + np.multiply(p.py, g.py, out=t1).sum())
        if gap <= inner_tol:
            break
    if done == 0:
        div_plus_z(p)
    x = x_pad[:, :w].copy()
    if return_info:
        return x, TvInfo(iterations=done, gap=gap,
                         converged=bool(gap <= inner_tol))
    return x


def tv_objective(x, z, lambda_scaled, isotropic=False):
    """(1/2)||x - z||^2 + lambda_scaled * TV(x); used by tests and oracles."""
    gx, gy = _grad2d(np.asarray(x, dtype=float))
    if isotropic:
        tv = float(np.sum(np.sqrt(gx * gx + gy * gy)))
    else:
        tv = float(np.sum(np.abs(gx)) + np.sum(np.abs(gy)))
    return 0.5 * float(np.sum((x - z) ** 2)) + lambda_scaled * tv


def averaged_linear_filter(z, sigma, passes=None):
    """Symmetric circular binomial smoothing W z with spectrum in [0, 1].

    One pass convolves each axis with [1/4, 1/2, 1/4] (periodic boundary);
    the DFT symbol is prod (1+cos w)/2 per axis, so W is symmetric PSD with
    unit DC gain and 2W - I is nonexpansive: W is 1/2-averaged. The number
    of passes grows like sigma^2 (diffusion-time mapping).
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ConfigurationError("averaged_linear_filter expects a 2D array")
    if sigma <= 0:
        raise ConfigurationError("sigma must be positive")
    if passes is None:
        passes = max(1, int(round(100.0 * sigma * sigma)))
    out = z
    for _ in range(passes):
        for axis in (0, 1):
            out = (0.5 * out
                   + 0.25 * np.roll(out, 1, axis=axis)
                   + 0.25 * np.roll(out, -1, axis=axis))
    return out


def shift_denoiser(z, sigma, c):
    """Appendix-style bounded counter-example: z + sigma*sqrt(c)*sgn(z)."""
    z = np.asarray(z, dtype=float)
    return z + sigma * math.sqrt(c) * np.sign(z)


class Denoiser:
    """denoise(z, sigma) on 2D arrays."""

    def denoise(self, z, sigma):
        raise NotImplementedError


class IdentityDenoiser(Denoiser):
    def denoise(self, z, sigma):
        return np.asarray(z, dtype=float).copy()


class TvProxDenoiser(Denoiser):
    """TV prox with strength read through sigma^2 = gamma*lambda."""

    def __init__(self, inner_iters=200, inner_tol=1e-12, isotropic=False):
        self.inner_iters = inner_iters
        self.inner_tol = inner_tol
        self.isotropic = isotropic

    def denoise(self, z, sigma):
        return tv_prox(z, sigma * sigma, inner_iters=self.inner_iters,
                       inner_tol=self.inner_tol, isotropic=self.isotropic)


class AveragedFilterDenoiser(Denoiser):
    def __init__(self, passes=None):
        self.passes = passes

    def denoise(self, z, sigma):
        return averaged_linear_filter(z, sigma, passes=self.passes)


class ShiftDenoiser(Denoiser):
    """Bounded denoiser that is not averaged (divergence counter-example)."""

    def __init__(self, c=1.0):
        if c <= 0:
            raise ConfigurationError("c must be positive")
        self.c = c

    def denoise(self, z, sigma):
        return shift_denoiser(z, sigma, self.c)


class DampedDenoiser(Denoiser):
    """(1-theta) I + theta * inner; theta-averaged when inner is nonexpansive."""

    def __init__(self, inner, theta):
        if not 0.0 < theta < 1.0:
            raise ConfigurationError("theta must lie in (0, 1)")
        self.inner = inner
        self.theta = theta

    def denoise(self, z, sigma):
        z = np.asarray(z, dtype=float)
        return ((1.0 - self.theta) * z
                + self.theta * self.inner.denoise(z, sigma))


def damp(denoiser, theta):
    """Damping wrapper; preserves the fixed points of the wrapped denoiser."""
    return DampedDenoiser(denoiser, theta)


@dataclass
class OperatorCertificate:
    """Empirical falsification record for alpha-averagedness."""

    pairs_tested: int
    max_violation: float
    alpha_tested: float
    passed: bool


def certify_averaged(denoiser, alpha, sigma, num_pairs=1000, domain_scale=2.0,
                     seed=0, tol=1e-9, shape=(16, 16)):
    """Test the averagedness inequality on random pairs.

    For each sampled pair (x, y) the recorded quantity is
    ||D(x)-D(y)||^2 - ||x-y||^2 + ((1-alpha)/alpha)||x-D(x)-y+D(y)||^2,
    which is <= 0 for every alpha-averaged operator. A pass is evidence,
    a violation is a disproof.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1)")
    if num_pairs < 1:
        raise ConfigurationError("num_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    max_violation = -math.inf
    for _ in range(num_pairs):
        x = rng.uniform(-domain_scale, domain_scale, size=shape)
        y = rng.uniform(-domain_scale, domain_scale, size=shape)
        max_violation = max(max_violation,
                            certify_pair(denoiser, alpha, sigma, x, y))
    return OperatorCertificate(pairs_tested=num_pairs,
                               max_violation=max_violation,
                               alpha_tested=alpha,
                               passed=max_violation <= tol)


def certify_pair(denoiser, alpha, sigma, x, y):
    """Averagedness violation for one explicit pair (constructive disproof)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = denoiser.denoise(x, sigma)
    dy = denoiser.denoise(y, sigma)
    ratio = (1.0 - alpha) / alpha
    return (float(np.sum((dx - dy) ** 2)) - float(np.sum((x - y) ** 2))
            + ratio * float(np.sum((x - dx - y + dy) ** 2)))


def estimate_bounded_constant(denoiser, sigma, samples):
    """max over samples of (1/n)||D(x)-x||^2 / sigma^2: a lower bound on c."""
    if sigma <= 0:
        raise ConfigurationError("sigma must be positive")
    samples = list(samples)
    if not samples:
        raise ConfigurationError("sample set must be nonempty")
    worst = 0.0
    for x in samples:
        x = np.asarray(x, dtype=float)
        dx = denoiser.denoise(x, sigma)
        worst = max(worst, float(np.sum((dx - x) ** 2)) / x.size / (sigma * sigma))
    return worst
