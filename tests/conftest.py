"""Shared fixtures: small measurement models and phantoms."""

import struct
import sys

import numpy as np
import pytest

from pnp_online.forward import (DtGeometry, Image, build_dt_model,
                                build_gaussian_model)
from pnp_online.phantoms import phantom_generate


def make_truth(grid, seed=0, contrast=0.05):
    phantom = phantom_generate("blobs", grid, seed=seed)
    return Image(pixels=phantom.pixels * contrast, width=grid, height=grid)


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
