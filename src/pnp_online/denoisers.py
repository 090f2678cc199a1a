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


class _DualPair:
    """A dual pair (px, py) in one flat zero-initialised buffer.

    The buffer holds a zero, px (h*w values, row-major), a zero row of w
    values, py, and w zeros. Under _grad2d's Neumann boundary the last
    column of px and the last row of py stay zero (`gx_live` and `gy_live`
    leave them out), so read flat, px[k] - px[k-1] and py[k] - py[k-w] are
    the divergence terms of the textbook loop at every pixel k: the zero
    column of px ends each row, and the leading zero and the zero row stand
    in for px[-1] and the row above py. `cur` and `prev` are two (2, h*w)
    views, so both fields' differences take one ufunc call. Every value
    outside px and py stays zero, so whole-buffer steps run on `flat`.
    """

    def __init__(self, h, w):
        m = h * w
        self.flat = np.zeros(1 + 2 * (m + w))
        self.cur = self.flat[1:].reshape(2, m + w)[:, :m]
        self.prev = self.flat[:2 * (m + 1)].reshape(2, m + 1)[:, :m]
        self.gx_live = self.cur[0].reshape(h, w)[:, :w - 1]
        self.gy_live = self.cur[1, :m - w]


def tv_prox(z, lambda_scaled, inner_iters=200, inner_tol=1e-12,
            return_info=False):
    """Proximal operator of lambda_scaled * ||D x||_1 at the 2D array z.

    Anisotropic TV, by accelerated dual projection (FGP, Beck & Teboulle
    2009): projected FISTA on the dual variable p = (px, py) with step 1/8
    (an upper bound on ||D||^2), returning x = z + div p once the duality
    gap is <= inner_tol or after inner_iters iterations. The defaults are
    the inner-solve policy of every TV call the package makes. With
    return_info=True the result is (x, TvInfo): iterations run, the last
    gap (inf if none was evaluated) and whether it met inner_tol.

    The dual iterates, the momentum point and grad x live in flat buffers
    (_DualPair), so each step is one ufunc call over both fields: div p is
    one subtraction of shifted views and two adds, the projection an
    in-place maximum and minimum, and the gap's four sums one reduction of
    a contiguous (4, h*w) scratch. Buffers are allocated once per call, and
    the x of the last gap test is the result. The floating-point
    operations and their order are those of the textbook loop kept in the
    tests as the bitwise oracle, so for a C-ordered z the output is
    bit-identical to it; other layouts are copied to C order first.
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
    m = h * w
    p, p_new, q, g = (_DualPair(h, w) for _ in range(4))
    x = np.empty((h, w))
    x_flat, z_flat = x.reshape(-1), z.reshape(-1)
    x_right, x_left = x[:, 1:], x[:, :w - 1]
    x_down, x_up = x_flat[w:], x_flat[:m - w]
    div = np.empty((2, m))
    div_x, div_y = div
    sums = np.empty((4, m))            # |gx|, |gy|, px*gx, py*gy
    abs_g, p_times_g = sums[:2], sums[2:]

    def x_and_grad(d):
        """x = z + div d, summed as the reference (x part + y part, then
        z), and g = grad x."""
        np.subtract(d.cur, d.prev, out=div)
        np.add(div_x, div_y, out=div_x)
        np.add(z_flat, div_x, out=x_flat)
        np.subtract(x_right, x_left, out=g.gx_live)
        np.subtract(x_down, x_up, out=g.gy_live)

    tau = 0.125
    q_prev = 1.0
    gap = math.inf
    done = 0
    while done < inner_iters:
        done += 1
        x_and_grad(q)
        np.multiply(g.flat, tau, out=p_new.flat)
        np.add(q.flat, p_new.flat, out=p_new.flat)
        np.maximum(p_new.flat, -lam, out=p_new.flat)
        np.minimum(p_new.flat, lam, out=p_new.flat)
        q_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * q_prev * q_prev))
        beta = (q_prev - 1.0) / q_new
        np.subtract(p_new.flat, p.flat, out=q.flat)
        np.multiply(q.flat, beta, out=q.flat)
        np.add(p_new.flat, q.flat, out=q.flat)
        p, p_new = p_new, p
        q_prev = q_new

        x_and_grad(p)
        np.abs(g.cur, out=abs_g)
        np.multiply(p.cur, g.cur, out=p_times_g)
        abs_x, abs_y, pg_x, pg_y = np.add.reduce(sums, axis=1).tolist()
        gap = lam * (abs_x + abs_y) - (pg_x + pg_y)
        if gap <= inner_tol:
            break
    if done == 0:
        x_and_grad(p)
    if return_info:
        return x, TvInfo(iterations=done, gap=gap,
                         converged=bool(gap <= inner_tol))
    return x


def tv_objective(x, z, lambda_scaled):
    """(1/2)||x - z||^2 + lambda_scaled * TV(x); used by tests and oracles."""
    gx, gy = _grad2d(np.asarray(x, dtype=float))
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

    def denoise(self, z, sigma):
        return tv_prox(z, sigma * sigma)


class AveragedFilterDenoiser(Denoiser):
    def denoise(self, z, sigma):
        return averaged_linear_filter(z, sigma)


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
