"""Batch and online solvers: ISTA/FISTA, ADMM, PnP-ISTA, PnP-ADMM, PnP-SGD.

They run on two loops. The forward-backward loop is PnP-SGD; PnP-ISTA is
its full-gradient case and ISTA/FISTA is PnP-ISTA with a regularizer prox
as the denoiser. The ADMM loop is PnP-ADMM; ADMM plugs in the prox the same
way. A denoiser `denoise(z, sigma)` and a regularizer prox `prox(z)` are
functions on 2D images, so the prox plugs in as `lambda z, _sigma:
prox(z)`. All runs are seed-deterministic state machines. Traces record the
squared distance to the fixed-point operator
P(x) = denoise(x - gamma * grad d(x)), computed with the full gradient even
inside stochastic runs.

Each entry point reads its settings from a validated
config.ExperimentConfig whose gamma and sigma are set (cli.run_algorithm
resolves them): gamma, sigma, iterations, batch_size, accelerated, seed,
record_timing, dist_stride and sample_mode. The forward-backward loop
starts at its x0 keyword, or at zero.
"""

import math
import time
from collections import deque
from dataclasses import replace

import numpy as np

from pnp_online.errors import ConfigurationError, DivergenceError
from pnp_online.forward import grad_full, gradient_from_indices, prox_datafit
from pnp_online.linops import CG_TOL

DIVERGENCE_FACTOR = 1e6
# The default dist_stride is 1 up to this many pixels, and 10 above.
DIST_EVERY_ITERATION_MAX_N = 4096
# The ADMM data prox starts CG from the Galerkin projection of its right
# side onto its last GALERKIN_WINDOW solutions. On the benchmark's
# `admm-filter` run (32 x 32, 60 iterations, seeds 0 and 97, under the
# tolerance schedule below) the Gram matvecs went from 481 cold to 233
# with 6 solutions, 213-214 with 8 and 218-219 with 12: the older
# solutions bring more rounding than direction. At a fixed 1e-12 the
# counts were 540 cold, 332-336, 314-319 and 328.
GALERKIN_WINDOW = 8
# The projection drops a solution whose A-norm^2 left after the newer ones
# is at most this share of its own: that remainder is rounding. The same
# runs took 263-267 matvecs at 1e-16, 225-229 at 1e-14, 240-241 at 1e-10
# and 299-300 at 1e-8 (at a fixed 1e-12: 362-364, 325-326, 347 and 386).
GALERKIN_DROP = 1e-12
# The ADMM loop's k-th data prox stops at the relative residual
# max(CG_TOL, DATA_PRECISION / k^2). The stored model (S, U and Y) is exact
# in complex64, whose unit roundoff is 2^-24, so a first solve finer than
# that resolves rounding of the data. The errors are summable
# (sum_k 2^-24 / k^2 = 2^-24 pi^2 / 6, about 1e-7), which keeps inexact
# ADMM and the averaged PnP iteration convergent, and from k = 245 on the
# rule is CG_TOL itself.
DATA_PRECISION = 2.0 ** -24


def fista_q_update(q_prev):
    """q_k = (1/2)(1 + sqrt(1 + 4 q_{k-1}^2)); strictly increasing from 1."""
    if q_prev < 1.0:
        raise ConfigurationError("q_prev must be >= 1")
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * q_prev * q_prev))


def prop2_bound(theta, x0_minus_xstar_sq, t):
    """Batch running-average fixed-point distance bound."""
    if not 0.0 < theta < 1.0:
        raise ConfigurationError("theta must lie in (0, 1)")
    if t < 1:
        raise ConfigurationError("t must be >= 1")
    return (2.0 / t) * ((1.0 + theta) / (1.0 - theta)) * x0_minus_xstar_sq


def sgd_bound(theta, gamma, nu, B, x0_dist, t):
    """Stochastic running-average fixed-point distance bound (in expectation)."""
    if not 0.0 < theta < 1.0:
        raise ConfigurationError("theta must lie in (0, 1)")
    if min(gamma, B, t) <= 0 or nu < 0 or x0_dist < 0:
        raise ConfigurationError("sgd_bound arguments must be positive")
    factor = 2.0 * (1.0 + theta) / (1.0 - theta)
    return factor * (gamma * gamma * nu * nu / B
                     + 2.0 * gamma * nu / math.sqrt(B) * x0_dist
                     + x0_dist * x0_dist / t)


def corollary1_constant(theta, x0_dist, nu, L):
    """A = 2((1+theta)/(1-theta)) (||x0 - x*|| + nu/L)^2."""
    return 2.0 * (1.0 + theta) / (1.0 - theta) * (x0_dist + nu / L) ** 2


def composition_alpha(alpha1, alpha2):
    """Averagedness constant of the composition of two averaged operators."""
    for a in (alpha1, alpha2):
        if not 0.0 < a < 1.0:
            raise ConfigurationError("alphas must lie in (0, 1)")
    return (alpha1 + alpha2 - 2.0 * alpha1 * alpha2) / (1.0 - alpha1 * alpha2)


def _denoise_flat(model, denoiser, sigma, z):
    return denoiser(z.reshape(model.shape), sigma).ravel()


def operator_P(model, denoiser, gamma, sigma, x):
    """P(x) = denoise(x - gamma * grad d(x)) on flat vectors."""
    z = x - gamma * grad_full(model, x)
    return _denoise_flat(model, denoiser, sigma, z)


class IterateTrace:
    """A run's per-iteration record, kept by both loops as they go.

    The recorded distance is metrics.dist_to_fix for the run's denoiser,
    gamma and sigma. The clock stops while a record is taken, so elapsed
    times the solver without its diagnostics.
    """

    def __init__(self, model, denoiser, config, x0, truth):
        from pnp_online import metrics  # metrics imports operator_P from here
        self._metrics = metrics
        self._model = model
        self._denoiser = denoiser
        self._config = config
        self._truth = truth
        self._x0_norm = float(np.linalg.norm(x0))
        self._stride = config.dist_stride
        if self._stride is None:
            self._stride = 1 if model.n <= DIST_EVERY_ITERATION_MAX_N else 10
        self.dist, self.snr, self.elapsed, self.indices = [], [], [], []
        self.warnings = []
        self._start = time.perf_counter()

    def __len__(self):
        return len(self.dist)

    def check_divergence(self, x):
        if not np.all(np.isfinite(x)):
            raise DivergenceError("NaN or Inf in iterate", trace=self)
        if np.linalg.norm(x) > DIVERGENCE_FACTOR * (1.0 + self._x0_norm):
            raise DivergenceError("iterate norm exceeded safety bound",
                                  trace=self)

    def record(self, k, x, indices=None):
        config = self._config
        entered = time.perf_counter()
        if k % self._stride == 0 or k == config.iterations:
            dist = self._metrics.dist_to_fix(self._model, self._denoiser,
                                             config.gamma, config.sigma, x)
        else:
            dist = math.nan
        self.dist.append(dist)
        self.snr.append(math.nan if self._truth is None
                        else self._metrics.snr_db(self._truth, x))
        self.elapsed.append(entered - self._start
                            if config.record_timing else 0.0)
        self.indices.append(indices)    # a new array at every draw
        self._start += time.perf_counter() - entered


def _initial_iterate(model, x0):
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float).ravel().copy()
        if x0.size != model.n:
            raise ConfigurationError("x0 length mismatch")
        return x0
    return np.zeros(model.n)


def run_ista(model, prox, config, truth=None):
    """ISTA/FISTA: PnP-ISTA with the 2D regularizer prox, which already
    captures gamma*lambda, as the denoiser."""
    return run_pnp_ista(model, lambda z, _sigma: prox(z), config, truth)


def run_pnp_ista(model, denoiser, config, truth=None, x0=None):
    """PnP-ISTA: PnP-SGD with the full gradient at every iteration."""
    return run_pnp_sgd(model, denoiser, replace(config, sample_mode="full"),
                       truth, x0)


def _gradient_oracle(model, config):
    """g(s) -> (indices, gradient), the forward-backward loop's gradient.

    sample_mode "replacement" draws independent uniform indices (the
    analyzed estimator), "cycle" pops them from successive random
    permutations, and "full" takes every component, makes no generator and
    records no indices, as the batch algorithm. perfbench's tracer wraps
    the two gradients in this module, so they are looked up at each call.
    """
    if config.sample_mode == "full":
        return lambda s: (None, grad_full(model, s))
    rng = np.random.default_rng(config.seed)
    if config.sample_mode == "replacement":
        def draw():
            return rng.integers(0, model.num_components,
                                size=config.batch_size)
    else:
        def cycled():
            while True:
                yield from rng.permutation(model.num_components)[::-1]
        stream = cycled()

        def draw():
            return np.asarray([next(stream) for _ in range(config.batch_size)])

    def gradient(s):
        indices = draw()
        return indices, gradient_from_indices(model, indices, s)
    return gradient


def run_pnp_sgd(model, denoiser, config, truth=None, x0=None):
    """Forward-backward: x = denoise(s - gamma * g(s)), then momentum."""
    gradient = _gradient_oracle(model, config)
    x = _initial_iterate(model, x0)
    s = x.copy()
    q_prev = 1.0
    trace = IterateTrace(model, denoiser, config, x, truth)
    for k in range(1, config.iterations + 1):
        indices, grad = gradient(s)
        x_new = _denoise_flat(model, denoiser, config.sigma,
                              s - config.gamma * grad)
        trace.check_divergence(x_new)
        q_new = fista_q_update(q_prev) if config.accelerated else 1.0
        s = x_new + (q_prev - 1.0) / q_new * (x_new - x)
        x, q_prev = x_new, q_new
        trace.record(k, x, indices)
    return x, trace


def run_admm(model, prox, config, truth=None):
    """ADMM: PnP-ADMM with the 2D regularizer prox as the denoiser."""
    return run_pnp_admm(model, lambda z, _sigma: prox(z), config, truth)


def galerkin_guess(solved, rhs):
    """The Galerkin projection of the solution of A z = rhs onto the span of
    earlier solutions z_j, A = I + gamma G: the z in their span whose error
    is A-orthogonal to it.

    `solved` holds the pairs (z_j, A z_j), newest first. Modified
    Gram-Schmidt in the A inner product u . A v, newest first, builds an
    A-orthonormal basis q_i with images w_i = A q_i from the pairs alone, so
    it costs no matvec, and drops a z_j whose remaining A-norm^2 is at most
    GALERKIN_DROP of z_j . A z_j. The guess is sum_i (q_i . rhs) q_i.
    """
    basis = []                         # (2, n) arrays, rows q_i and w_i
    for z, image in solved:
        qw = np.array((z, image))
        for b in basis:
            qw -= float(b[0] @ qw[1]) * b
        norm2 = float(qw[0] @ qw[1])
        if norm2 > GALERKIN_DROP * float(z @ image):
            qw /= math.sqrt(norm2)
            basis.append(qw)
    guess = np.zeros_like(rhs)
    for b in basis:
        guess += float(b[0] @ rhs) * b[0]
    return guess


def run_pnp_admm(model, denoiser, config, truth=None):
    """The ADMM loop from zero, with the data prox solved by CG.

    The k-th CG solve (k = 1, 2, ...) stops at the relative residual
    max(CG_TOL, DATA_PRECISION / k^2): 2^-24 at k = 1, CG_TOL from k = 245
    on. On the benchmark's `admm-filter` run that cuts the Gram matvecs
    from 314 at a fixed CG_TOL to 213, and moves the final iterate by
    2.5e-11 relative.

    The first CG solve starts at zero and every later one at
    `galerkin_guess` on the last GALERKIN_WINDOW converged solves. Each is
    kept with its image A z = rhs - r, its right side
    rhs = x - s + gamma (1/I) sum_i Re(H_i^H y_i) less the residual r that
    CG left: the image to rounding, where rhs alone is off by up to
    tol ||rhs||, an error that the guess's coefficients amplify on nearly
    dependent solutions (the benchmark run took 370-371 matvecs with it,
    and 409 with 12 solutions). A CG solve that meets a value that is
    not finite is a divergence.
    """
    x, s = np.zeros(model.n), np.zeros(model.n)
    solved = deque(maxlen=GALERKIN_WINDOW)
    trace = IterateTrace(model, denoiser, config, x, truth)
    for k in range(1, config.iterations + 1):
        v = x - s
        rhs = v + config.gamma * model.back_projection
        guess = galerkin_guess(solved, rhs) if solved else None
        tol = max(CG_TOL, DATA_PRECISION / k ** 2)
        z, info = prox_datafit(model, config.gamma, v, tol=tol, x0=guess)
        if info.converged:
            solved.appendleft((z, rhs - info.residual))
        elif not math.isfinite(info.relative_residual):
            raise DivergenceError(
                f"NaN or Inf in the inner CG residual at iteration {k}",
                trace=trace)
        else:
            trace.warnings.append(
                f"iteration {k}: inner CG stopped at relative residual "
                f"{info.relative_residual:.3e}")
        x = _denoise_flat(model, denoiser, config.sigma, z + s)
        trace.check_divergence(x)
        s = s + (z - x)
        trace.record(k, x)
    return x, trace


def huber_gradient(x):
    """Derivative of the Huber function: x on [-1, 1], sign(x) outside."""
    if abs(x) <= 1.0:
        return x
    return math.copysign(1.0, x)


def run_counterexample(gamma, sigma, c, z0, t):
    """Scalar PnP-ISTA (q_k = 1) with Huber fidelity and the shift denoiser.

    Returns the array [z^0, ..., z^t]. For sigma > gamma/sqrt(c) the
    iterates diverge linearly; the run is allowed regardless so the bounded
    regime can be observed too.
    """
    if not 0.0 < gamma < 1.0:
        raise ConfigurationError("gamma must lie in (0, 1)")
    if sigma <= 0 or c <= 0:
        raise ConfigurationError("sigma and c must be positive")
    shift = sigma * math.sqrt(c)
    z = float(z0)
    trace = [z]
    for _ in range(t):
        x = z + shift * math.copysign(1.0, z) if z != 0.0 else 0.0
        z = x - gamma * huber_gradient(x)
        trace.append(z)
    return np.asarray(trace)


def estimate_gradient_noise(model, x0, num_draws=1000, B=1, seed=0):
    """Monte-Carlo estimate of nu: rms of ||grad d - minibatch grad|| * sqrt(B).

    Evaluated at x0 as a proxy for the global constant of the variance
    assumption.
    """
    from pnp_online.forward import grad_minibatch

    rng = np.random.default_rng(seed)
    full = grad_full(model, x0)
    total = 0.0
    for _ in range(num_draws):
        g, _ = grad_minibatch(model, x0, B, rng)
        diff = full - g
        total += float(diff @ diff)
    return math.sqrt(total / num_draws) * math.sqrt(B)
