"""Measurement models: first-Born diffraction tomography and Gaussian baseline.

A model is a collection of I component operators {H_i} with measurements
{y_i}. The data fidelity is the 1/I-averaged least squares
d(x) = (1/I) sum_i (1/2)||y_i - H_i x||^2, so minibatch gradients estimate
the full gradient without rescaling.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from pnp_online.bessel import hankel1_0, hankel1_0_array
from pnp_online.errors import ConfigurationError
from pnp_online.linops import (LinearOperator, cg_solve_regularized,
                               output_gram, power_iteration_lipschitz)


@dataclass
class Image:
    """Real-valued image on a 2D grid, stored as a flat vector."""

    pixels: np.ndarray
    width: int
    height: int
    physical_extent: float = 0.18

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

    @classmethod
    def from_grid(cls, grid, physical_extent=0.18):
        grid = np.asarray(grid, dtype=float)
        return cls(pixels=grid.ravel(), width=grid.shape[1],
                   height=grid.shape[0], physical_extent=physical_extent)


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
        if self.wavelength <= 0:
            raise ConfigurationError("wavelength must be positive")
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


class BornComponentOperator(LinearOperator):
    """H = S diag(u_in) for one illumination; S is shared across components."""

    def __init__(self, scattering, incident_field):
        self.scattering = scattering            # (M, n) complex
        self.incident_field = incident_field    # (n,) complex
        self.output_dim, self.input_dim = scattering.shape
        if incident_field.shape != (self.input_dim,):
            raise ConfigurationError("incident field length mismatch")

    def apply(self, x):
        return self.scattering @ (self.incident_field * x)

    def adjoint_apply(self, y):
        # conj(conj(y) @ S) == S^H y without an (n, M) conjugate copy of S.
        return self.incident_field.conj() * np.conj(np.conj(y) @ self.scattering)

    def output_gram(self):
        scattering, incident = self.scattering, self.incident_field
        return output_gram(lambda cols: scattering[:, cols] * incident[cols],
                           self.input_dim)


class _AveragedStackOperator(LinearOperator):
    """Vertical stack of the H_i scaled by 1/sqrt(I): gram = (1/I) sum H_i^H H_i."""

    def __init__(self, operators):
        self.operators = operators
        self.input_dim = operators[0].input_dim
        self.output_dim = sum(op.output_dim for op in operators)
        self._scale = 1.0 / math.sqrt(len(operators))

    def apply(self, x):
        return self._scale * np.concatenate([op.apply(x)
                                             for op in self.operators])

    def adjoint_apply(self, y):
        out = np.zeros(self.input_dim, dtype=complex)
        offset = 0
        for op in self.operators:
            out += op.adjoint_apply(y[offset:offset + op.output_dim])
            offset += op.output_dim
        return self._scale * out


@dataclass
class MeasurementModel:
    """I component operators with measurements and a shared Lipschitz bound."""

    components: list                      # list of (LinearOperator, y_i)
    lipschitz: float
    width: int
    height: int
    geometry: DtGeometry | None = None
    seed: int | None = None
    input_snr_db: float = math.inf
    _stack: LinearOperator | None = field(default=None, repr=False)

    def __post_init__(self):
        dims = {(op.input_dim, op.output_dim) for op, _ in self.components}
        if len(dims) != 1:
            raise ConfigurationError("components must share dimensions")
        (self.n, self.M), = dims
        if self.n != self.width * self.height:
            raise ConfigurationError("component input_dim must match grid")

    @property
    def num_components(self):
        return len(self.components)

    @property
    def shape(self):
        return (self.height, self.width)

    def averaged_stack(self):
        if self._stack is None:
            self._stack = _AveragedStackOperator(
                [op for op, _ in self.components])
        return self._stack


def _apply_noise(clean, rng, input_snr_db, complex_noise):
    """Scale one global noise draw so the input SNR hits the request exactly."""
    signal_power = sum(float(np.vdot(y, y).real) for y in clean)
    if not math.isfinite(input_snr_db) or signal_power == 0.0:
        # +inf SNR, or the zero-signal convention: no noise at all.
        return [y.copy() for y in clean]
    if complex_noise:
        raw = [rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)
               for y in clean]
    else:
        raw = [rng.standard_normal(y.size) for y in clean]
    raw_power = sum(float(np.vdot(e, e).real) for e in raw)
    scale = math.sqrt(signal_power / (10.0 ** (input_snr_db / 10.0) * raw_power))
    return [y + scale * e for y, e in zip(clean, raw)]


def _model_lipschitz(operators, seed):
    return max(power_iteration_lipschitz(op, seed=seed).value
               for op in operators)


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

    operators = []
    for tx in transmitters:
        if geometry.incident == "point":
            dist_tx = np.linalg.norm(pixels - tx[None, :], axis=1)
            if np.any(dist_tx <= 0):
                raise ConfigurationError("transmitter coincides with a grid point")
            u_in = green_function_2d(k_b, dist_tx)
        else:
            direction = -tx / np.linalg.norm(tx)
            u_in = np.exp(1j * k_b * (pixels @ direction))
        operators.append(BornComponentOperator(scattering, u_in))

    rng = np.random.default_rng(seed)
    clean = [op.apply(truth.pixels) for op in operators]
    noisy = _apply_noise(clean, rng, input_snr_db, complex_noise=True)
    lipschitz = _model_lipschitz(operators, seed)
    return MeasurementModel(components=list(zip(operators, noisy)),
                            lipschitz=lipschitz, width=truth.width,
                            height=truth.height, geometry=geometry,
                            seed=seed, input_snr_db=input_snr_db)


def build_gaussian_model(n, M, I, seed, truth, input_snr_db=math.inf):
    """Random real Gaussian baseline model with entries scaled by 1/sqrt(M)."""
    if min(n, M, I) < 1:
        raise ConfigurationError("model dimensions must be positive")
    if truth.n != n:
        raise ConfigurationError("truth length must equal n")
    from pnp_online.linops import MatrixOperator

    rng = np.random.default_rng(seed)
    operators = [MatrixOperator(rng.standard_normal((M, n)) / math.sqrt(M))
                 for _ in range(I)]
    clean = [op.apply(truth.pixels) for op in operators]
    noisy = _apply_noise(clean, rng, input_snr_db, complex_noise=False)
    lipschitz = _model_lipschitz(operators, seed)
    return MeasurementModel(components=list(zip(operators, noisy)),
                            lipschitz=lipschitz, width=truth.width,
                            height=truth.height, geometry=None, seed=seed,
                            input_snr_db=input_snr_db)


def component_gradient(model, index, x):
    """grad of d_i(x) = (1/2)||y_i - H_i x||^2, real part convention."""
    op, y = model.components[index]
    return np.real(op.adjoint_apply(op.apply(x) - y))


def gradient_from_indices(model, indices, x):
    """Average of the listed component gradients (accumulation order fixed)."""
    total = np.zeros(model.n)
    for i in indices:
        total += component_gradient(model, int(i), x)
    return total / len(indices)


def grad_full(model, x):
    """Full gradient (1/I) sum_i Re(H_i^H (H_i x - y_i))."""
    return gradient_from_indices(model, range(model.num_components), x)


def grad_minibatch(model, x, B, rng):
    """Minibatch gradient over B indices drawn uniformly with replacement."""
    if B < 1:
        raise ConfigurationError("minibatch size must be >= 1")
    indices = rng.integers(0, model.num_components, size=B)
    return gradient_from_indices(model, indices, x), indices


def datafit_value(model, x):
    """d(x) = (1/I) sum_i (1/2)||y_i - H_i x||^2."""
    total = 0.0
    for op, y in model.components:
        r = op.apply(x) - y
        total += 0.5 * float(np.vdot(r, r).real)
    return total / model.num_components


def prox_datafit(model, gamma, x, tol=1e-10, max_iter=None, return_info=False):
    """prox of gamma*d at x: solve (I + (gamma/I) sum H_i^H H_i) z = rhs by CG."""
    if gamma <= 0:
        raise ConfigurationError("gamma must be positive")
    stack = model.averaged_stack()
    rhs = np.asarray(x, dtype=float).copy()
    for op, y in model.components:
        rhs += (gamma / model.num_components) * np.real(op.adjoint_apply(y))
    return cg_solve_regularized(stack, gamma, rhs, tol=tol, max_iter=max_iter,
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
