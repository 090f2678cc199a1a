"""Denoisers for the plug-and-play slot, with averagedness certificates.

A denoiser is any function `denoise(z, sigma)` from a 2D array to a 2D
array. Shipped plug-ins are `tv_denoiser`, the anisotropic-TV proximal
operator (a true proximal operator, hence 1/2-averaged), and
`averaged_linear_filter`, a symmetric unit-DC-gain convolution filter
whose spectrum lies in [0, 1] (also 1/2-averaged), besides
`identity_denoiser`. `shift_denoiser` is the bounded-but-divergent
counter-example.
"""

import math
from dataclasses import dataclass

import numpy as np

from pnp_online.errors import ConfigurationError

# Passes per averaged_linear_filter call (sigma <= 10): 0.4 s per call at
# 8 x 8 and 7 s at 256 x 256, and a run filters twice per iteration. The
# filter then already returns the mean of any grid up to 52 pixels a side,
# to double precision, so more passes add time and no smoothing there.
FILTER_PASSES_MAX = 10_000
# tv_prox's default cap on its dual iterations; certify's work counts it.
TV_INNER_ITERS = 200


@dataclass
class TvInfo:
    """How exactly one tv_prox call solved its dual problem."""

    iterations: int
    gap: float
    converged: bool


def tv_prox(z, lambda_scaled, inner_iters=TV_INNER_ITERS, inner_tol=1e-12,
            return_info=False):
    """Proximal operator of lambda_scaled * ||D x||_1 at the 2D array z.

    Anisotropic TV, by accelerated dual projection (FGP, Beck & Teboulle
    2009): projected FISTA on the dual variable p = (px, py) with step 1/8
    (an upper bound on ||D||^2), returning x = z + div p once the duality
    gap is <= inner_tol * max(1, 10 ||z||^2) or after inner_iters
    iterations: the absolute gap inner_tol while ||z||^2 <= 0.1 and the
    relative gap 10 inner_tol ||z||^2 above, an inexact prox in the sense
    of Schmidt, Le Roux & Bach (NIPS 2011). The prox objective is
    1-strongly convex, so a gap g bounds the error of x by
    ||x - x*||^2 <= 2 g: at the default ||x - x*|| is at most
    max(sqrt(2e-12), sqrt(2e-11) ||z||), in the units of z. The stopping
    gap is never below inner_tol, so the rule never runs more inner
    iterations than an absolute gap of inner_tol, and runs exactly those
    while ||z||^2 <= 0.1; inner_tol = 0 asks for an exact solve. Where
    10 inner_tol ||z||^2 is not finite (||z||^2 overflowed), inner_tol
    alone applies. The defaults are the inner-solve policy of every TV
    call the package makes. With return_info=True the result is
    (x, TvInfo): iterations run, the last gap (inf if none was evaluated)
    and whether it met the rule.

    The dual iterate, its successor, the momentum point and grad x each
    live in one flat zero-initialised buffer: a zero, the x field (h*w
    values, row-major), a zero row of w values, the y field, and w zeros.
    Under the Neumann boundary of grad the last column of the x field and
    the last row of the y field stay zero, so read flat, px[k] - px[k-1]
    and py[k] - py[k-w] are the divergence terms of the textbook loop at
    every pixel k: the zero column of px ends each row, and the leading
    zero and the zero row stand in for px[-1] and the row above py. `cur`
    and `prev` are two (2, h*w) views of a buffer, so both fields'
    differences take one ufunc call, and since every value outside the two
    fields stays zero, the other steps run on whole buffers: the
    projection is an in-place maximum and minimum, and the gap's |g| and
    p*g fill a (4, h*w + w) scratch whose zero padding its one reduction
    leaves out, each of its four sums running over h*w contiguous values.
    The x-difference is one contiguous subtraction of x shifted by one,
    whose values across a row end are then overwritten by the Neumann
    zeros. An inner iteration makes 22 array calls. Buffers are allocated
    once per call, and the x of the last gap test is the result. The
    floating-point operations and their order are those of the textbook
    loop kept in the tests as the bitwise oracle, so for a C-ordered z the
    output is bit-identical to it; other layouts are copied to C order
    first.
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

    def dual():
        """A zeroed buffer in the layout above: (flat, its body after the
        leading zero, cur, prev)."""
        flat = np.zeros(1 + 2 * (m + w))
        return (flat, flat[1:], flat[1:].reshape(2, m + w)[:, :m],
                flat[:2 * (m + 1)].reshape(2, m + 1)[:, :m])

    p, p_new = dual(), dual()
    q_flat, _, q_cur, q_prev = dual()
    g_flat, g_body, g_cur, _ = dual()
    gx_head, gx_edge = g_cur[0, :m - 1], g_cur[0].reshape(h, w)[:, w - 1]
    gy_live = g_cur[1, :m - w]
    x = np.empty((h, w))
    x_flat, z_flat = x.reshape(-1), z.reshape(-1)
    x_next, x_head = x_flat[1:], x_flat[:m - 1]
    x_down, x_up = x_flat[w:], x_flat[:m - w]
    div = np.empty((2, m))
    div_x, div_y = div
    sums = np.empty((4, m + w))        # |gx|, |gy|, px*gx, py*gy
    abs_g, p_times_g = sums[:2].reshape(-1), sums[2:].reshape(-1)
    terms = sums[:, :m]

    def x_and_grad(cur, prev):
        """x = z + div d for the dual d with views cur and prev, summed as
        the reference (x part + y part, then z), and g = grad x."""
        np.subtract(cur, prev, out=div)
        np.add(div_x, div_y, out=div_x)
        np.add(z_flat, div_x, out=x_flat)
        np.subtract(x_next, x_head, out=gx_head)
        gx_edge.fill(0.0)
        np.subtract(x_down, x_up, out=gy_live)

    with np.errstate(over="ignore"):   # an inf ||z||^2 falls back below
        tol = inner_tol * max(1.0, 10.0 * float(z_flat @ z_flat))
    if not math.isfinite(tol):
        tol = inner_tol
    tau = 0.125
    t = 1.0
    gap = math.inf
    done = 0
    while done < inner_iters:
        done += 1
        x_and_grad(q_cur, q_prev)
        p_flat, new_flat = p[0], p_new[0]
        np.multiply(g_flat, tau, out=new_flat)
        np.add(q_flat, new_flat, out=new_flat)
        np.maximum(new_flat, -lam, out=new_flat)
        np.minimum(new_flat, lam, out=new_flat)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        np.subtract(new_flat, p_flat, out=q_flat)
        np.multiply(q_flat, beta, out=q_flat)
        np.add(new_flat, q_flat, out=q_flat)
        p, p_new = p_new, p
        t = t_new

        _, p_body, p_cur, p_prev = p
        x_and_grad(p_cur, p_prev)
        np.abs(g_body, out=abs_g)
        np.multiply(p_body, g_body, out=p_times_g)
        abs_x, abs_y, pg_x, pg_y = np.add.reduce(terms, axis=1).tolist()
        gap = lam * (abs_x + abs_y) - (pg_x + pg_y)
        if gap <= tol:
            break
    if done == 0:
        x_and_grad(*p[2:])
    if return_info:
        return x, TvInfo(iterations=done, gap=gap,
                         converged=bool(gap <= tol))
    return x


def averaged_linear_filter(z, sigma):
    """Symmetric circular binomial smoothing W z with spectrum in [0, 1].

    One pass convolves each axis with [1/4, 1/2, 1/4] (periodic boundary);
    the DFT symbol is prod (1+cos w)/2 per axis, so W is symmetric PSD with
    unit DC gain and 2W - I is nonexpansive: W is 1/2-averaged. The number
    of passes grows like sigma^2 (diffusion-time mapping).
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ConfigurationError("averaged_linear_filter expects a 2D array")
    out = z
    for _ in range(filter_passes(sigma)):
        for axis in (0, 1):
            out = (0.5 * out
                   + 0.25 * np.roll(out, 1, axis=axis)
                   + 0.25 * np.roll(out, -1, axis=axis))
    return out


def filter_passes(sigma):
    """The filter's passes at sigma: round(100 sigma^2), at least 1."""
    if sigma <= 0:
        raise ConfigurationError("sigma must be positive")
    scaled = 100.0 * sigma * sigma
    if not math.isfinite(scaled) or round(scaled) > FILTER_PASSES_MAX:
        raise ConfigurationError(
            f"the filter's sigma must give at most {FILTER_PASSES_MAX} "
            f"passes, round(100 sigma^2), so sigma <= 10; got {sigma!r}")
    return max(1, int(round(scaled)))


def identity_denoiser(z, sigma):
    """A copy of z, whatever sigma."""
    return np.array(z, dtype=float)


def tv_denoiser(z, sigma):
    """TV prox with strength read through sigma^2 = gamma*lambda."""
    return tv_prox(z, sigma * sigma)


def shift_denoiser(z, sigma, c=1.0):
    """Bounded, not averaged counter-example: z + sigma*sqrt(c)*sgn(z)."""
    if c <= 0:
        raise ConfigurationError("c must be positive")
    z = np.asarray(z, dtype=float)
    return z + sigma * math.sqrt(c) * np.sign(z)


def certify_averaged(denoiser, alpha, sigma, num_pairs=1000, domain_scale=2.0,
                     seed=0, shape=(16, 16)):
    """The largest averagedness violation over random pairs.

    For each sampled pair (x, y) the recorded quantity is
    ||D(x)-D(y)||^2 - ||x-y||^2 + ((1-alpha)/alpha)||x-D(x)-y+D(y)||^2,
    which is <= 0 for every alpha-averaged operator. A largest value <= 0
    (up to rounding) is evidence, a positive one a disproof.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1)")
    if num_pairs < 1:
        raise ConfigurationError("num_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    return max(certify_pair(denoiser, alpha, sigma,
                            *rng.uniform(-domain_scale, domain_scale,
                                         size=(2, *shape)))
               for _ in range(num_pairs))


def certify_pair(denoiser, alpha, sigma, x, y):
    """Averagedness violation for one explicit pair (constructive disproof)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = denoiser(x, sigma)
    dy = denoiser(y, sigma)
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
        dx = denoiser(x, sigma)
        worst = max(worst, float(np.sum((dx - x) ** 2)) / x.size / (sigma * sigma))
    return worst
