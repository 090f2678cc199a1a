"""Measurement model: first-Born diffraction tomography.

A model holds I component operators H_i = S diag(u_i) and measurements y_i
as arrays; the stacked-matrix baseline is a test oracle in
`tests/conftest.py`. The data fidelity is the 1/I-averaged least squares
d(x) = (1/I) sum_i (1/2)||y_i - H_i x||^2, so minibatch gradients estimate
the full gradient without rescaling.
"""

import math
from dataclasses import dataclass

import numpy as np

from pnp_online.bessel import ARRAY_BLOCK, hankel1_0_array
# hankel1_0_array at one point, unused here; perfbench/tracer.py counts
# this binding.
from pnp_online.bessel import hankel1_0  # noqa: F401
from pnp_online.errors import ConfigurationError
from pnp_online.linops import CG_TOL, cg_solve_regularized, lambda_max_bound
# Unused here; perfbench/tracer.py patches this binding.
from pnp_online.linops import power_iteration_lipschitz  # noqa: F401

# The incident fields; a name's index is its code in a PNPM2 header.
INCIDENTS = ("point", "plane")


def truth_sha256(truth):
    """SHA-256 digest (32 bytes) of a truth image as little-endian float64,
    row-major: the fingerprint a PNPM2 file stores."""
    # imported here, so that importing the package loads no OpenSSL: the
    # `pnp` process blocks it (cli.run_process)
    import hashlib
    return hashlib.sha256(np.asarray(truth, dtype="<f8").tobytes()).digest()


@dataclass
class DtGeometry:
    """Circular transmitter/receiver ring around a square object domain;
    its fields, in order, are the config's geometry keys."""

    grid: int = 32                   # pixels per side
    domain_side: float = 0.18        # meters
    wavelength: float = 0.0084       # meters
    eps_background: float = 1.0
    transmitters: int = 16
    receivers: int = 48
    ring_radius: float = 1.6         # meters, shared by tx and rx rings
    incident: str = "point"          # one of INCIDENTS

    def __post_init__(self):
        for name in ("domain_side", "wavelength", "eps_background",
                     "ring_radius"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {value}")
        if not math.isfinite(self.wavenumber * self.wavenumber):
            raise ConfigurationError("wavelength and eps_background give a "
                                     "wavenumber whose square overflows")
        if self.ring_radius <= self.domain_side / math.sqrt(2.0):
            raise ConfigurationError(
                "ring_radius must exceed domain_side/sqrt(2) so sources sit "
                "outside the object domain")
        if self.incident not in INCIDENTS:
            raise ConfigurationError(
                "incident must be " + " or ".join(map(repr, INCIDENTS)))
        if min(self.grid, self.transmitters, self.receivers) < 1:
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


def green_function_2d(k_b, r):
    """2D free-space Helmholtz Green's function g(r) = (i/4) H0^(1)(k_b r),
    elementwise over an array of distances r.

    With k_b > 0, an r that is not positive, or NaN, gives a k_b r that
    hankel1_0_array rejects, so r is checked there, once."""
    if not k_b > 0:     # NaN too; with r < 0 as well, k_b r would be > 0
        raise ConfigurationError("wavenumber must be positive")
    g = hankel1_0_array(k_b * np.asarray(r, dtype=float))
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
    """I DT components H_i with measurements y_i, held as arrays.

    Each H_i = S diag(u_i) stays factored: the shared scattering matrix
    S (M, n) and the incident fields U (I, n). The measurements are
    Y (I, M). Products over a set of components take `rows`, a slice or an
    index array; a repeated index repeats its component.

    Every model carries the record a PNPM2 file stores: the `DtGeometry`,
    whose square grid gives `shape` and n, the noise seed, the requested
    input SNR, and the digest `truth_sha256` of the simulated truth.
    `lambdas` holds lambda_max(H_i^H H_i) of every component, each a
    certified upper bound from `lambda_max_bound`; unless given, they are
    computed from S and U. `lipschitz`, the step's L, is their max.
    """

    def __init__(self, *, measurements, scattering, incident, geometry, seed,
                 input_snr_db, truth_sha256, lambdas=None):
        self.measurements = np.asarray(measurements)
        self.scattering, self.incident = scattering, incident
        self.geometry, self.seed = geometry, seed
        self.input_snr_db = input_snr_db
        self.truth_sha256 = truth_sha256
        self.shape = (geometry.grid, geometry.grid)
        self.n = geometry.grid ** 2
        num, self.M = self.measurements.shape
        if (scattering.shape != (self.M, self.n)
                or incident.shape != (num, self.n)):
            raise ConfigurationError("component arrays must match the "
                                     "measurements and the grid")
        # (1/I) sum_i Re(H_i^H y_i): the data term of every prox right side
        self.back_projection = self.adjoint_sum(self.measurements) / num
        self.lambdas = (factored_lambdas(scattering, incident)
                        if lambdas is None else np.asarray(lambdas, float))
        if self.lambdas.shape != (num,):
            raise ConfigurationError("lambdas must hold one value per "
                                     f"component ({num})")

    @property
    def num_components(self):
        return len(self.measurements)

    @property
    def lipschitz(self):
        return float(self.lambdas.max())

    def select(self, indices):
        """The model of the listed components, with their lambda_i."""
        rows = np.asarray(indices, dtype=np.intp)
        return MeasurementModel(
            lambdas=self.lambdas[rows], measurements=self.measurements[rows],
            scattering=self.scattering, incident=self.incident[rows],
            geometry=self.geometry, seed=self.seed,
            input_snr_db=self.input_snr_db, truth_sha256=self.truth_sha256)

    def apply(self, x, rows=slice(None)):
        """H_i x for the components `rows`, stacked as a (B, M) array."""
        return (self.incident[rows] * x) @ self.scattering.T

    def adjoint_sum(self, residuals, rows=slice(None)):
        """sum_i Re(H_i^H r_i) over the components `rows`, r_i = residuals[i].

        The rows are summed one at a time, in order.
        """
        # Re(conj(u) * S^H r) == Re(u * (conj(r) @ S)): no conjugate of S.
        w = np.conj(residuals) @ self.scattering
        w *= self.incident[rows]
        return w.real.sum(axis=0)

    def gram_apply(self, x):
        """(1/I) sum_i Re(H_i^H H_i x): the averaged Gram matvec."""
        return self.adjoint_sum(self.apply(x)) / self.num_components


def factored_lambdas(scattering, incident):
    """lambda_max(H_i^H H_i) of every H_i = S diag(u_i), u_i the rows of U,
    from `lambda_max_bound` on H_i formed a column chunk at a time."""
    return np.array([
        lambda_max_bound(lambda cols, u=u: scattering[:, cols] * u[cols],
                         scattering.shape)
        for u in incident])


def _apply_noise(clean, rng, input_snr_db):
    """Scale one complex noise draw so the input SNR hits the request exactly.

    The draw takes each row of `clean` (I, M) in turn: M real parts, then
    M imaginary parts.
    """
    signal_power = sum(float(np.vdot(y, y).real) for y in clean)
    if not math.isfinite(input_snr_db) or signal_power == 0.0:
        # +inf SNR, or the zero-signal convention: no noise at all.
        return clean
    raw = rng.standard_normal((len(clean), 2, clean.shape[1]))
    raw = raw[:, 0] + 1j * raw[:, 1]
    raw_power = sum(float(np.vdot(e, e).real) for e in raw)
    scale = math.sqrt(signal_power / (10.0 ** (input_snr_db / 10.0) * raw_power))
    return clean + scale * raw


def row_slices(rows, cols):
    """A (rows, cols) array's row blocks, as slices: ARRAY_BLOCK elements'
    worth of rows each, or one row when a row is longer."""
    step = max(1, ARRAY_BLOCK // cols)
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _row_blocks(shape, fill):
    """The complex array of `shape`, formed a row block at a time:
    fill(rows, out) writes its rows `rows` (a slice) into their view out."""
    array = np.empty(shape, dtype=complex)
    for rows in row_slices(*shape):
        fill(rows, array[rows])
    return array


def _round_to_stored(array):
    """Round `array` in place to complex64, the precision a PNPM2 file
    stores, a row block at a time; raise if a block does not fit."""
    for rows in row_slices(*array.shape):
        block = array[rows].astype(np.complex64)
        if not np.all(np.isfinite(block)):
            raise ConfigurationError("S, u_i or y_i hold NaN or Inf in "
                                     "complex64; no model built")
        array[rows] = block


def build_dt_model(geometry, truth, seed=0, input_snr_db=40.0):
    """Simulate first-Born DT measurements of a real contrast image, the
    finite (grid, grid) array `truth`.

    S[m, j] = k_b^2 * delta^2 * g(||r_m - r_j||) (midpoint-rule Born
    integral); the incident field is a point source at each transmitter, or
    a unit plane wave aimed at the origin when geometry.incident == "plane".
    S and U are formed a row block at a time, each element as a whole-array
    build forms it, and each block is written into its rows, so they are the
    build's only arrays of their size.
    The noisy Y is formed from them in full precision; then S, U and Y are
    rounded to complex64, so the model is the one its PNPM2 file loads.
    """
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (geometry.grid, geometry.grid):
        raise ConfigurationError("truth grid must match geometry grid")
    if not np.all(np.isfinite(truth)):
        raise ConfigurationError("truth pixels must be finite")
    k_b = geometry.wavenumber
    scale = (k_b ** 2) * (geometry.pixel_size ** 2)
    pixels = geometry.pixel_centers()
    receivers = geometry.ring_positions(geometry.receivers)
    transmitters = geometry.ring_positions(geometry.transmitters)

    def green(sources, rows):
        # sqrt(dx*dx + dy*dy): the bits of np.linalg.norm(sources[rows,
        # None] - pixels, axis=2), without its (rows, n, 2) temporaries
        dist = np.subtract.outer(sources[rows, 0], pixels[:, 0])
        dist *= dist
        dy = np.subtract.outer(sources[rows, 1], pixels[:, 1])
        dy *= dy
        dist += dy
        return green_function_2d(k_b, np.sqrt(dist, out=dist))

    scattering = _row_blocks(
        (len(receivers), len(pixels)),
        lambda rows, out: np.multiply(scale, green(receivers, rows), out=out))
    if geometry.incident == "point":
        incident = _row_blocks(
            (len(transmitters), len(pixels)),
            lambda rows, out: np.copyto(out, green(transmitters, rows)))
    else:
        directions = -transmitters / np.linalg.norm(transmitters, axis=1,
                                                    keepdims=True)
        phase = directions @ pixels.T
        incident = _row_blocks(
            phase.shape,
            lambda rows, out: np.exp(1j * k_b * phase[rows], out=out))

    # Only a noisy model makes a generator. It comes before the clean data:
    # made after them, it raised a 48 x 48 simulate's peak RSS by 0.1 MB.
    rng = np.random.default_rng(seed) if math.isfinite(input_snr_db) else None
    # One product S (u_i * x) per component, so a noiseless y_i equals
    # H_i x formed on its own bit for bit.
    clean = np.array([scattering @ (u * truth.ravel()) for u in incident])
    noisy = _apply_noise(clean, rng, input_snr_db)
    for array in (scattering, incident, noisy):
        _round_to_stored(array)
    return MeasurementModel(measurements=noisy, scattering=scattering,
                            incident=incident, geometry=geometry, seed=seed,
                            input_snr_db=input_snr_db,
                            truth_sha256=truth_sha256(truth))


def _gradient(model, rows, x):
    residuals = model.apply(x, rows) - model.measurements[rows]
    return model.adjoint_sum(residuals, rows) / len(residuals)


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


def prox_datafit(model, gamma, x, tol=CG_TOL, max_iter=None, x0=None):
    """prox of gamma*d at x: (z, CgInfo) from CG on (I + gamma G) z = rhs,
    rhs = x + gamma (1/I) sum_i Re(H_i^H y_i), started at the guess x0
    (zero if None).

    This is the one inner-solve policy of the package's data prox: CG to a
    relative residual `tol` within `max_iter` iterations (CG_TOL = 1e-12
    and 10 n by default). The ADMM loop passes each call a tolerance from
    its summable schedule (`solvers.run_pnp_admm`)."""
    if gamma <= 0:
        raise ConfigurationError("gamma must be positive")
    rhs = np.asarray(x, dtype=float) + gamma * model.back_projection
    return cg_solve_regularized(model, gamma, rhs, tol=tol, max_iter=max_iter,
                                x0=x0)
