"""Measurement models: first-Born diffraction tomography and Gaussian baseline.

A model holds I component operators H_i and measurements y_i as arrays.
The data fidelity is the 1/I-averaged least squares
d(x) = (1/I) sum_i (1/2)||y_i - H_i x||^2, so minibatch gradients estimate
the full gradient without rescaling.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from pnp_online.bessel import hankel1_0, hankel1_0_array
from pnp_online.errors import ConfigurationError
from pnp_online.linops import cg_solve_regularized, lambda_max_bound
# Unused here; perfbench/tracer.py patches this binding.
from pnp_online.linops import power_iteration_lipschitz  # noqa: F401


@dataclass
class Image:
    """Real-valued image on a 2D grid, stored as a flat vector."""

    pixels: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=float).ravel()
        if self.width * self.height != self.pixels.size:
            raise ConfigurationError("width*height must equal pixel count")
        if not np.all(np.isfinite(self.pixels)):
            raise ConfigurationError("image pixels must be finite")

    @property
    def n(self):
        return self.pixels.size

    def grid(self):
        return self.pixels.reshape(self.height, self.width)

    def sha256(self):
        """SHA-256 digest (32 bytes) of the pixels as little-endian float64."""
        return hashlib.sha256(self.pixels.astype("<f8").tobytes()).digest()

    @classmethod
    def from_grid(cls, grid):
        grid = np.asarray(grid, dtype=float)
        return cls(pixels=grid.ravel(), width=grid.shape[1],
                   height=grid.shape[0])


@dataclass
class DtGeometry:
    """Circular transmitter/receiver ring around a square object domain."""

    domain_side: float = 0.18        # meters
    grid: int = 32                   # pixels per side
    wavelength: float = 0.0084       # meters
    eps_background: float = 1.0
    num_transmitters: int = 16
    num_receivers: int = 48
    ring_radius: float = 1.6         # meters, shared by tx and rx rings
    incident: str = "point"          # "point" or "plane"

    def __post_init__(self):
        for name in ("domain_side", "wavelength", "eps_background",
                     "ring_radius"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {value}")
        if self.ring_radius <= self.domain_side / math.sqrt(2.0):
            raise ConfigurationError(
                "ring_radius must exceed domain_side/sqrt(2) so sources sit "
                "outside the object domain")
        if self.incident not in ("point", "plane"):
            raise ConfigurationError("incident must be 'point' or 'plane'")
        if min(self.grid, self.num_transmitters, self.num_receivers) < 1:
            raise ConfigurationError("grid and array counts must be positive")

    @property
    def wavenumber(self):
        return 2.0 * math.pi * math.sqrt(self.eps_background) / self.wavelength

    @property
    def pixel_size(self):
        return self.domain_side / self.grid

    def pixel_centers(self):
        """(n, 2) array of pixel center coordinates, row-major."""
        delta = self.pixel_size
        coords = -0.5 * self.domain_side + delta * (np.arange(self.grid) + 0.5)
        yy, xx = np.meshgrid(coords, coords, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    def ring_positions(self, count):
        angles = 2.0 * math.pi * np.arange(count) / count
        return self.ring_radius * np.column_stack([np.cos(angles),
                                                   np.sin(angles)])

    def transmitter_positions(self):
        return self.ring_positions(self.num_transmitters)

    def receiver_positions(self):
        return self.ring_positions(self.num_receivers)


def green_function_2d(k_b, r):
    """2D free-space Helmholtz Green's function g(r) = (i/4) H0^(1)(k_b r)."""
    if k_b <= 0:
        raise ConfigurationError("wavenumber must be positive")
    if np.isscalar(r):
        if r <= 0:
            raise ConfigurationError("green_function_2d is singular at r = 0")
        return 0.25j * hankel1_0(k_b * r)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ConfigurationError("green_function_2d is singular at r = 0")
    g = hankel1_0_array(k_b * r)
    g *= 0.25j
    return g


class BornComponentOperator:
    """H = S diag(u_in) for one illumination; S is shared across components.

    Nothing in the package uses it: `MeasurementModel` applies every H_i
    from its arrays. It stays because perfbench/tracer.py counts calls to
    its `apply` and `adjoint_apply` and reports a missing binding as
    uncovered; it goes with the tracer's counter.
    """

    def __init__(self, scattering, incident_field):
        self.scattering = scattering            # (M, n) complex
        self.incident_field = incident_field    # (n,) complex

    def apply(self, x):
        return self.scattering @ (self.incident_field * x)

    def adjoint_apply(self, y):
        # conj(conj(y) @ S) == S^H y without an (n, M) conjugate copy of S.
        return self.incident_field.conj() * np.conj(np.conj(y) @ self.scattering)


class MeasurementModel:
    """I components H_i with measurements y_i, held as arrays.

    A DT model keeps each H_i = S diag(u_i) factored: the shared scattering
    matrix S (M, n) and the incident fields U (I, n). Any other model keeps
    the stacked matrices H (I, M, n). The measurements are Y (I, M).
    Products over a set of components take `rows`, a slice or an index
    array; a repeated index repeats its component.

    `lambdas` holds lambda_max(H_i^H H_i) of every component, each a
    certified upper bound from `lambda_max_bound`; unless given, they are
    computed on first use. `lipschitz`, the step's L, is their max.
    `truth_sha256` is the `Image.sha256` of the simulated truth, or None.
    """

    def __init__(self, *, width, height, measurements, scattering=None,
                 incident=None, matrices=None, geometry=None, seed=None,
                 input_snr_db=math.inf, lambdas=None, truth_sha256=None):
        self.measurements = np.asarray(measurements)
        self.scattering, self.incident = scattering, incident
        self.matrices = matrices
        self.width, self.height = width, height
        self.geometry, self.seed = geometry, seed
        self.input_snr_db = input_snr_db
        self.truth_sha256 = truth_sha256
        self.n = width * height
        num, self.M = self.measurements.shape
        if matrices is not None:
            ok = matrices.shape == (num, self.M, self.n)
        else:
            ok = (scattering.shape == (self.M, self.n)
                  and incident.shape == (num, self.n))
        if not ok:
            raise ConfigurationError("component arrays must match the "
                                     "measurements and the grid")
        self._lambdas = (None if lambdas is None
                         else np.asarray(lambdas, dtype=float))
        # (1/I) sum_i Re(H_i^H y_i): the data term of every prox right side
        self.back_projection = self.adjoint_sum(self.measurements) / num

    @property
    def num_components(self):
        return len(self.measurements)

    @property
    def shape(self):
        return (self.height, self.width)

    @property
    def lambdas(self):
        if self._lambdas is None:
            if self.matrices is None:
                self._lambdas = factored_lambdas(self.scattering,
                                                 self.incident)
            else:
                self._lambdas = np.array([
                    lambda_max_bound(lambda cols, h=h: h[:, cols], h.shape)
                    for h in self.matrices])
        return self._lambdas

    @property
    def lipschitz(self):
        return float(self.lambdas.max())

    def select(self, indices):
        """The model of the listed components, with their lambda_i."""
        rows = np.asarray(indices, dtype=np.intp)
        return MeasurementModel(
            lambdas=self.lambdas[rows], width=self.width, height=self.height,
            measurements=self.measurements[rows], scattering=self.scattering,
            incident=None if self.incident is None else self.incident[rows],
            matrices=None if self.matrices is None else self.matrices[rows],
            geometry=self.geometry, seed=self.seed,
            input_snr_db=self.input_snr_db, truth_sha256=self.truth_sha256)

    def apply(self, x, rows=slice(None)):
        """H_i x for the components `rows`, stacked as a (B, M) array."""
        if self.matrices is not None:
            return self.matrices[rows] @ x
        return (self.incident[rows] * x) @ self.scattering.T

    def adjoint_sum(self, residuals, rows=slice(None)):
        """sum_i Re(H_i^H r_i) over the components `rows`, r_i = residuals[i].

        The rows are summed one at a time, in order. Stacked matrices form
        each row's product on its own, so there a set of components sums
        to exactly the sum of its single-component terms.
        """
        if self.matrices is not None:
            w = np.conj(residuals)[:, None, :] @ self.matrices[rows]
            return np.real(w[:, 0]).sum(axis=0)
        # Re(conj(u) * S^H r) == Re(u * (conj(r) @ S)): no conjugate of S.
        w = np.conj(residuals) @ self.scattering
        w *= self.incident[rows]
        return w.real.sum(axis=0)

    def gram_apply(self, x):
        """(1/I) sum_i Re(H_i^H H_i x): the averaged Gram matvec."""
        return self.adjoint_sum(self.apply(x)) / self.num_components


def factored_lambdas(scattering, incident):
    """lambda_max(H_i^H H_i) of every H_i = S diag(u_i), u_i the rows of U.

    Each bound comes from `lambda_max_bound`. S and U may be complex64 (the
    arrays a PNPM2 file stores) or complex128: each column chunk is widened
    to complex128 as `lambda_max_bound` asks for it, so no full complex128
    copy is made, and a complex128 chunk is not copied at all. Either way
    the products are those of complex128 S and U, so the lambda_i of a
    saved model equal those its loaded, widened arrays give, bit for bit.
    """
    return np.array([
        lambda_max_bound(
            lambda cols, u=u: (scattering[:, cols].astype(complex, copy=False)
                               * u[cols].astype(complex, copy=False)),
            scattering.shape)
        for u in incident])


def _apply_noise(clean, rng, input_snr_db, complex_noise):
    """Scale one global noise draw so the input SNR hits the request exactly.

    The draw takes each row of `clean` (I, M) in turn: M real parts, then
    M imaginary parts when complex.
    """
    signal_power = sum(float(np.vdot(y, y).real) for y in clean)
    if not math.isfinite(input_snr_db) or signal_power == 0.0:
        # +inf SNR, or the zero-signal convention: no noise at all.
        return clean
    if complex_noise:
        raw = rng.standard_normal((len(clean), 2, clean.shape[1]))
        raw = raw[:, 0] + 1j * raw[:, 1]
    else:
        raw = rng.standard_normal(clean.shape)
    raw_power = sum(float(np.vdot(e, e).real) for e in raw)
    scale = math.sqrt(signal_power / (10.0 ** (input_snr_db / 10.0) * raw_power))
    return clean + scale * raw


def build_dt_model(geometry, truth, seed=0, input_snr_db=40.0):
    """Simulate first-Born DT measurements of a real contrast image.

    S[m, j] = k_b^2 * delta^2 * g(||r_m - r_j||) (midpoint-rule Born
    integral); the incident field is a point source at each transmitter, or
    a unit plane wave aimed at the origin when geometry.incident == "plane".
    """
    if truth.width != geometry.grid or truth.height != geometry.grid:
        raise ConfigurationError("truth grid must match geometry grid")
    k_b = geometry.wavenumber
    delta = geometry.pixel_size
    pixels = geometry.pixel_centers()
    receivers = geometry.receiver_positions()
    transmitters = geometry.transmitter_positions()

    dist_rx = np.linalg.norm(receivers[:, None, :] - pixels[None, :, :], axis=2)
    if np.any(dist_rx <= 0):
        raise ConfigurationError("receiver coincides with a grid point")
    scattering = (k_b ** 2) * (delta ** 2) * green_function_2d(k_b, dist_rx)

    if geometry.incident == "point":
        dist_tx = np.linalg.norm(pixels[None, :, :] - transmitters[:, None, :],
                                 axis=2)
        if np.any(dist_tx <= 0):
            raise ConfigurationError("transmitter coincides with a grid point")
        incident = green_function_2d(k_b, dist_tx)
    else:
        directions = -transmitters / np.linalg.norm(transmitters, axis=1,
                                                    keepdims=True)
        incident = np.exp(1j * k_b * (directions @ pixels.T))

    rng = np.random.default_rng(seed)
    # One product S (u_i * x) per component, so a noiseless y_i equals
    # H_i x formed on its own bit for bit.
    clean = np.array([scattering @ (u * truth.pixels) for u in incident])
    noisy = _apply_noise(clean, rng, input_snr_db, complex_noise=True)
    return MeasurementModel(width=truth.width, height=truth.height,
                            measurements=noisy, scattering=scattering,
                            incident=incident, geometry=geometry, seed=seed,
                            input_snr_db=input_snr_db,
                            truth_sha256=truth.sha256())


def build_gaussian_model(n, M, I, seed, truth, input_snr_db=math.inf):
    """Random real Gaussian baseline model with entries scaled by 1/sqrt(M)."""
    if min(n, M, I) < 1:
        raise ConfigurationError("model dimensions must be positive")
    if truth.n != n:
        raise ConfigurationError("truth length must equal n")
    rng = np.random.default_rng(seed)
    matrices = rng.standard_normal((I, M, n)) / math.sqrt(M)
    clean = matrices @ truth.pixels
    noisy = _apply_noise(clean, rng, input_snr_db, complex_noise=False)
    return MeasurementModel(width=truth.width, height=truth.height,
                            measurements=noisy, matrices=matrices,
                            geometry=None, seed=seed,
                            input_snr_db=input_snr_db)


def _gradient(model, rows, x):
    residuals = model.apply(x, rows) - model.measurements[rows]
    return model.adjoint_sum(residuals, rows) / len(residuals)


def component_gradient(model, index, x):
    """grad of d_i(x) = (1/2)||y_i - H_i x||^2, real part convention."""
    return gradient_from_indices(model, [index], x)


def gradient_from_indices(model, indices, x):
    """Average of the listed component gradients (accumulation order fixed)."""
    return _gradient(model, np.asarray(indices, dtype=np.intp), x)


def grad_full(model, x):
    """Full gradient (1/I) sum_i Re(H_i^H (H_i x - y_i))."""
    return _gradient(model, slice(None), x)


def grad_minibatch(model, x, B, rng):
    """Minibatch gradient over B indices drawn uniformly with replacement."""
    if B < 1:
        raise ConfigurationError("minibatch size must be >= 1")
    indices = rng.integers(0, model.num_components, size=B)
    return gradient_from_indices(model, indices, x), indices


def datafit_value(model, x):
    """d(x) = (1/I) sum_i (1/2)||y_i - H_i x||^2."""
    residuals = model.apply(x) - model.measurements
    return 0.5 * float(np.vdot(residuals, residuals).real) / model.num_components


def prox_datafit(model, gamma, x, tol=1e-10, max_iter=None, return_info=False):
    """prox of gamma*d at x: solve (I + (gamma/I) sum H_i^H H_i) z = rhs by CG."""
    if gamma <= 0:
        raise ConfigurationError("gamma must be positive")
    rhs = np.asarray(x, dtype=float) + gamma * model.back_projection
    return cg_solve_regularized(model, gamma, rhs, tol=tol, max_iter=max_iter,
                                return_info=return_info)


class CyclingSampler:
    """Without-replacement epoch sampler ("randomly cycles" mode)."""

    def __init__(self, num_components, rng):
        self.num_components = num_components
        self.rng = rng
        self._queue = []

    def draw(self, B):
        indices = []
        while len(indices) < B:
            if not self._queue:
                self._queue = list(self.rng.permutation(self.num_components))
            indices.append(self._queue.pop())
        return np.asarray(indices)
