"""Shared fixtures: small measurement models and phantoms, and the test
oracles: forward differences, the TV objective and the data fit."""

import struct
import sys

import numpy as np
import pytest

from pnp_online.forward import (DtGeometry, Image, MeasurementModel,
                                build_dt_model, build_gaussian_model)
from pnp_online.phantoms import phantom_generate


def make_truth(grid, seed=0, contrast=0.05):
    phantom = phantom_generate("blobs", grid, seed=seed)
    return Image(pixels=phantom.pixels * contrast, width=grid, height=grid)


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


def stacked_model(h, y=None):
    """The one-component stacked model of the dense h; y defaults to 0."""
    h = np.asarray(h)
    if y is None:
        y = np.zeros(h.shape[0], dtype=h.dtype)
    return MeasurementModel(width=h.shape[1], height=1,
                            measurements=np.asarray(y)[None], matrices=h[None])


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
    geometry = DtGeometry(grid=16, num_transmitters=4, num_receivers=12)
    truth = make_truth(16, seed=1)
    model = build_dt_model(geometry, truth, seed=0, input_snr_db=40.0)
    return model, truth


@pytest.fixture(scope="session")
def small_gaussian_model():
    """16-dim real Gaussian model, noiseless."""
    truth = Image(pixels=np.linspace(0.0, 1.0, 16), width=4, height=4)
    model = build_gaussian_model(n=16, M=24, I=4, seed=3, truth=truth)
    return model, truth


# The legacy PNPM1 header: PNPM2's without the trailing 32-byte fingerprint.
PNPM1_HEADER = struct.Struct("<B III dddd III B q d")


def pnpm1_bytes(pnpm2):
    """The PNPM1 file of the same model as the PNPM2 file bytes `pnpm2`.

    PNPM1 has magic "PNPM1" and version byte 1, and holds neither the truth
    fingerprint nor the lambda_i block; the data blocks are the same.
    """
    header = PNPM1_HEADER.unpack_from(pnpm2, 5)
    num_components = header[3]
    start = 5 + PNPM1_HEADER.size + 32 + 8 * num_components
    return b"PNPM1" + PNPM1_HEADER.pack(1, *header[1:]) + pnpm2[start:]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance pass/fail lines even with output capture on."""
    module = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance")
    lines = getattr(module, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
