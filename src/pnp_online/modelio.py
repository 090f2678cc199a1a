"""PNPM1 binary container for simulated DT measurement sets.

Layout: magic "PNPM1", one format-version byte, a fixed-size header
(dimensions, geometry record, seed, input SNR), then row-major complex64
blocks: the shared scattering matrix S once, followed by one incident
field u_in^i and one measurement vector y_i per illumination. The loader
widens each block to complex128 once, which is exact, so the solvers'
products need no per-call upcast; saving a loaded model reproduces the
file byte for byte. L is not stored: the loaded model computes its
lambda_i from the widened blocks. A header with an empty dimension or an
invalid geometry, a file whose size differs from the one its header
implies, and a block holding NaN or Inf are rejected.
"""

import math
import os
import struct

import numpy as np

from pnp_online.errors import ConfigurationError
from pnp_online.forward import DtGeometry, MeasurementModel
# Unused here; perfbench/tracer.py patches this binding.
from pnp_online.linops import power_iteration_lipschitz  # noqa: F401

MAGIC = b"PNPM1"
VERSION = 1
_HEADER = struct.Struct("<B III dddd III B q d")
_INCIDENT_CODES = {"point": 0, "plane": 1}
_INCIDENT_NAMES = {v: k for k, v in _INCIDENT_CODES.items()}


def save_model(path, model):
    """Serialize a DT MeasurementModel; raises for non-DT models."""
    geometry = model.geometry
    if geometry is None:
        raise ConfigurationError("only DT models carry the PNPM1 geometry record")
    if model.scattering is None:
        raise ConfigurationError("PNPM1 stores S diag(u_in) factored operators")
    n, M, I = model.n, model.M, model.num_components
    snr = model.input_snr_db if model.input_snr_db is not None else math.inf
    header = _HEADER.pack(VERSION, n, M, I,
                          geometry.domain_side, geometry.wavelength,
                          geometry.eps_background, geometry.ring_radius,
                          geometry.grid, geometry.num_transmitters,
                          geometry.num_receivers,
                          _INCIDENT_CODES[geometry.incident],
                          int(model.seed or 0), float(snr))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        fh.write(np.ascontiguousarray(model.scattering,
                                      dtype=np.complex64).tobytes())
        for u_in, y in zip(model.incident, model.measurements):
            fh.write(np.ascontiguousarray(u_in, dtype=np.complex64).tobytes())
            fh.write(np.ascontiguousarray(y, dtype=np.complex64).tobytes())


def load_model(path):
    """Load a PNPM1 container back into a MeasurementModel."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ConfigurationError(f"bad magic {magic!r}: not a PNPM1 file")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ConfigurationError("truncated PNPM1 header")
        (version, n, M, I, domain_side, wavelength, eps_background,
         ring_radius, grid, num_tx, num_rx, incident_code, seed,
         input_snr_db) = _HEADER.unpack(header)
        if version != VERSION:
            raise ConfigurationError(f"unsupported PNPM1 version {version}")
        if min(n, M, I) < 1:
            raise ConfigurationError(
                f"empty PNPM1 dimensions n={n}, M={M}, I={I}")
        itemsize = np.dtype(np.complex64).itemsize
        expected = fh.tell() + itemsize * (M * n + I * (n + M))
        actual = os.fstat(fh.fileno()).st_size
        if actual != expected:
            raise ConfigurationError(f"PNPM1 file has {actual} bytes, "
                                     f"its header implies {expected}")
        geometry = DtGeometry(domain_side=domain_side, grid=grid,
                              wavelength=wavelength,
                              eps_background=eps_background,
                              num_transmitters=num_tx, num_receivers=num_rx,
                              ring_radius=ring_radius,
                              incident=_INCIDENT_NAMES.get(incident_code))

        def read_block(count):
            raw = fh.read(count * itemsize)
            if len(raw) != count * itemsize:
                raise ConfigurationError("truncated PNPM1 data block")
            block = np.frombuffer(raw, dtype=np.complex64).astype(np.complex128)
            if not np.all(np.isfinite(block)):
                raise ConfigurationError("PNPM1 data block holds NaN or Inf")
            return block

        scattering = read_block(M * n).reshape(M, n)
        incident = np.empty((I, n), dtype=complex)
        measurements = np.empty((I, M), dtype=complex)
        for i in range(I):
            incident[i] = read_block(n)
            measurements[i] = read_block(M)
    return MeasurementModel(width=grid, height=grid,
                            measurements=measurements, scattering=scattering,
                            incident=incident, geometry=geometry, seed=seed,
                            input_snr_db=input_snr_db)
