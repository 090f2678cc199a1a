"""Shared fixtures: small measurement models and phantoms, and the test
oracles: forward differences, the TV objective, the data fit, the
stacked-matrix measurement model with its Gaussian draw, the whole-array
DT build and PNPM2 write, a zero-residual DT model, and the CSV reader."""

import math
import sys

import numpy as np
import pytest

from pnp_online import modelio
from pnp_online.errors import ConfigurationError
from pnp_online.forward import (DtGeometry, MeasurementModel, _apply_noise,
                                build_dt_model, green_function_2d,
                                truth_sha256)
from pnp_online.linops import lambda_max_bound
from pnp_online.phantoms import phantom_generate


def make_truth(grid, seed=0, contrast=0.05):
    return phantom_generate("blobs", grid, seed=seed) * contrast


def _grad2d(u):
    """Forward differences with Neumann boundary: last row/column zero."""
    dx = np.zeros_like(u)
    dy = np.zeros_like(u)
    dx[:, :-1] = u[:, 1:] - u[:, :-1]
    dy[:-1, :] = u[1:, :] - u[:-1, :]
    return dx, dy


def tv_objective(x, z, lambda_scaled):
    """(1/2)||x - z||^2 + lambda_scaled * TV(x); used by tests and oracles."""
    gx, gy = _grad2d(np.asarray(x, dtype=float))
    tv = float(np.sum(np.abs(gx)) + np.sum(np.abs(gy)))
    return 0.5 * float(np.sum((x - z) ** 2)) + lambda_scaled * tv


def datafit_value(model, x):
    """d(x) = (1/I) sum_i (1/2)||y_i - H_i x||^2."""
    residuals = model.apply(x) - model.measurements
    return 0.5 * float(np.vdot(residuals, residuals).real) / model.num_components


class StackedModel:
    """I dense components H_i, stacked as matrices (I, M, n), with
    measurements Y (I, M).

    It has the attributes of `MeasurementModel` that the solvers, CG and
    the CLI helpers read, and forms each product the way the package's
    stacked-matrix model did: `apply` is one (B, M, n) @ (n,) product, and
    `adjoint_sum` forms each row's product on its own, so a set of
    components sums to exactly the sum of its single-component terms.
    Each lambda_i is `lambda_max_bound` of its H_i.
    """

    def __init__(self, matrices, measurements, width, height, lambdas=None):
        self.matrices = matrices
        self.measurements = np.asarray(measurements)
        self.width, self.height = width, height
        self.n = width * height
        self.M = self.measurements.shape[1]
        self._lambdas = lambdas
        self.back_projection = (self.adjoint_sum(self.measurements)
                                / self.num_components)

    @property
    def num_components(self):
        return len(self.measurements)

    @property
    def shape(self):
        return (self.height, self.width)

    @property
    def lambdas(self):
        if self._lambdas is None:
            self._lambdas = np.array([
                lambda_max_bound(lambda cols, h=h: h[:, cols], h.shape)
                for h in self.matrices])
        return self._lambdas

    @property
    def lipschitz(self):
        return float(self.lambdas.max())

    def select(self, indices):
        rows = np.asarray(indices, dtype=np.intp)
        return StackedModel(self.matrices[rows], self.measurements[rows],
                            self.width, self.height, self.lambdas[rows])

    def apply(self, x, rows=slice(None)):
        return self.matrices[rows] @ x

    def adjoint_sum(self, residuals, rows=slice(None)):
        w = np.conj(residuals)[:, None, :] @ self.matrices[rows]
        return np.real(w[:, 0]).sum(axis=0)

    def gram_apply(self, x):
        return self.adjoint_sum(self.apply(x)) / self.num_components


def gaussian_model(n, M, I, seed, truth):
    """Noiseless random real Gaussian model, entries scaled by 1/sqrt(M)."""
    rng = np.random.default_rng(seed)
    matrices = rng.standard_normal((I, M, n)) / math.sqrt(M)
    height, width = truth.shape
    return StackedModel(matrices, matrices @ truth.ravel(), width, height)


def stacked_model(h, y=None):
    """The one-component stacked model of the dense h; y defaults to 0."""
    h = np.asarray(h)
    if y is None:
        y = np.zeros(h.shape[0], dtype=h.dtype)
    return StackedModel(h[None], np.asarray(y)[None], h.shape[1], 1)


def whole_array_dt_arrays(geometry):
    """The complex128 S and U of `build_dt_model` before their rounding, as
    one pass over whole arrays: every distance, Green value and scaled copy
    is a full-size temporary."""
    k_b = geometry.wavenumber
    delta = geometry.pixel_size
    pixels = geometry.pixel_centers()
    receivers = geometry.ring_positions(geometry.receivers)
    transmitters = geometry.ring_positions(geometry.transmitters)
    dist_rx = np.linalg.norm(receivers[:, None, :] - pixels[None, :, :],
                             axis=2)
    scattering = (k_b ** 2) * (delta ** 2) * green_function_2d(k_b, dist_rx)
    if geometry.incident == "point":
        dist_tx = np.linalg.norm(pixels[None, :, :]
                                 - transmitters[:, None, :], axis=2)
        incident = green_function_2d(k_b, dist_tx)
    else:
        directions = -transmitters / np.linalg.norm(transmitters, axis=1,
                                                    keepdims=True)
        incident = np.exp(1j * k_b * (directions @ pixels.T))
    return scattering, incident


def whole_array_dt_model(geometry, truth, seed=0, input_snr_db=40.0):
    """`build_dt_model` on whole arrays: Y from the complex128 S and U,
    then all three rounded to complex64 as whole copies."""
    scattering, incident = whole_array_dt_arrays(geometry)
    rng = np.random.default_rng(seed)
    clean = np.array([scattering @ (u * truth.ravel()) for u in incident])
    noisy = _apply_noise(clean, rng, input_snr_db)
    scattering, incident, noisy = (
        array.astype(np.complex64).astype(complex)
        for array in (scattering, incident, noisy))
    return MeasurementModel(
        measurements=noisy, scattering=scattering, incident=incident,
        geometry=geometry, seed=seed, input_snr_db=input_snr_db,
        truth_sha256=truth_sha256(truth))


def zero_residual_dt_model(geometry, truth):
    """The noiseless DT model of `truth` with y_i = H_i x of its own rounded
    S and U, formed by `apply`, so the residual at the truth is zero."""
    model = build_dt_model(geometry, truth, seed=0, input_snr_db=math.inf)
    return MeasurementModel(
        measurements=model.apply(truth.ravel()), scattering=model.scattering,
        incident=model.incident, geometry=geometry, seed=0,
        input_snr_db=math.inf, truth_sha256=truth_sha256(truth),
        lambdas=model.lambdas)


# The PNPM2 header's incident byte, as the file format fixes it; the oracle
# spells it out rather than reading it from modelio.
PNPM2_INCIDENT_CODES = {"point": 0, "plane": 1}


def whole_array_save_model(path, model):
    """`modelio.save_model` from whole complex64 copies of S, U and Y, with
    each lambda_i from the widened column chunks of those copies."""
    geometry = model.geometry
    scattering = np.ascontiguousarray(model.scattering, dtype=np.complex64)
    incident = np.ascontiguousarray(model.incident, dtype=np.complex64)
    measurements = np.ascontiguousarray(model.measurements,
                                        dtype=np.complex64)
    if not all(np.all(np.isfinite(block))
               for block in (scattering, incident, measurements)):
        raise ConfigurationError("non-finite complex64 block")
    lambdas = np.array([
        lambda_max_bound(
            lambda cols, u=u: (scattering[:, cols].astype(complex)
                               * u[cols].astype(complex)),
            scattering.shape)
        for u in incident])
    header = modelio._HEADER.pack(
        modelio.VERSION, model.n, model.M, model.num_components,
        geometry.domain_side, geometry.wavelength, geometry.eps_background,
        geometry.ring_radius, geometry.grid, geometry.transmitters,
        geometry.receivers, PNPM2_INCIDENT_CODES[geometry.incident],
        model.seed, model.input_snr_db, model.truth_sha256)
    with open(path, "wb") as fh:
        fh.write(modelio.MAGIC)
        fh.write(header)
        fh.write(lambdas.astype("<f8").tobytes())
        fh.write(scattering)
        for u_in, y in zip(incident, measurements):
            fh.write(u_in)
            fh.write(y)
    return lambdas


def read_csv(path):
    """Return (schema, columns, rows-of-strings) of a `cli.write_csv` file;
    the `#` comment lines after the rows are skipped."""
    with open(path, encoding="ascii") as fh:
        first = fh.readline().strip()
        if not first.startswith("# schema="):
            raise ConfigurationError(f"{path}: missing schema header line")
        schema = first.split("=", 1)[1]
        columns = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh
                if line.strip() and not line.startswith("#")]
    return schema, columns, rows


def recording(fn, outputs):
    """fn, appending each result to `outputs`. Around a denoiser or a prox
    it records every output in call order, the solver's and dist's alike."""
    def wrapped(*args):
        outputs.append(fn(*args))
        return outputs[-1]
    return wrapped


@pytest.fixture(scope="session")
def small_dt_model():
    """16x16 DT model with 4 illuminations and 12 receivers, 40 dB noise."""
    geometry = DtGeometry(grid=16, transmitters=4, receivers=12)
    truth = make_truth(16, seed=1)
    model = build_dt_model(geometry, truth, seed=0, input_snr_db=40.0)
    return model, truth


@pytest.fixture(scope="session")
def small_gaussian_model():
    """16-dim real Gaussian model, noiseless."""
    truth = np.linspace(0.0, 1.0, 16).reshape(4, 4)
    model = gaussian_model(n=16, M=24, I=4, seed=3, truth=truth)
    return model, truth


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance pass/fail lines even with output capture on."""
    module = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance")
    lines = getattr(module, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
