"""PNPM2 binary container for simulated DT measurement sets.

Layout, little-endian:
- magic "PNPM2";
- a fixed-size header: format-version byte 2, the dimensions n, M and I,
  the geometry record, the seed, the input SNR, and the 32-byte SHA-256 of
  the truth image the measurements were simulated from (`Image.sha256` of
  the scaled pixels);
- I float64 lambda_i = lambda_max(H_i^H H_i), certified upper bounds from
  `lambda_max_bound` (L is their max);
- row-major complex64 blocks: the shared scattering matrix S once, then one
  incident field u_i and one measurement vector y_i per illumination.

`save_model` computes the lambda_i from the complex64-rounded S and u_i it
writes (`factored_lambdas`, which widens one column chunk at a time), so
they are certified for the very operator `load_model` returns. The loader
widens each block to complex128 once, which is exact, so the solvers'
products need no per-call upcast; saving a loaded model reproduces the file
byte for byte.

The loader does no eigen work. It rejects a file whose magic or version is
unknown, whose header holds an empty dimension or an invalid geometry,
whose size differs from the one its header implies, or whose blocks hold
NaN or Inf. It checks every stored lambda_i against the trace of its Gram,
tr(G_i) = sum_j |u_ij|^2 ||s_j||^2 (s_j the columns of S), which costs
O((M + I) n): lambda_max(G_i) lies in [tr(G_i)/p, tr(G_i)], p = min(M, n),
so a lambda_i that is not finite or lies outside that window, widened by
twice `rounding_margin` (the bound's own margin, and as much again for the
rounding of the two traces), is rejected. The window is a sanity check,
not a checksum: a corruption that keeps every lambda_i inside it goes
unseen.

PNPM1 files, the same layout with magic "PNPM1", version byte 1, and
neither the truth fingerprint nor the lambda_i, still load: their model
computes its lambda_i from the loaded arrays on first use, and carries no
truth fingerprint (`truth_sha256` is None).
"""

import math
import os
import struct

import numpy as np

from pnp_online.errors import ConfigurationError
from pnp_online.forward import DtGeometry, MeasurementModel, factored_lambdas
from pnp_online.linops import rounding_margin
# Unused here; perfbench/tracer.py patches this binding.
from pnp_online.linops import power_iteration_lipschitz  # noqa: F401

MAGIC = b"PNPM2"
VERSION = 2
_FIELDS = "<B III dddd III B q d"
_HEADER = struct.Struct(_FIELDS + " 32s")
MAGIC_V1 = b"PNPM1"
_HEADER_V1 = struct.Struct(_FIELDS)
_INCIDENT_CODES = {"point": 0, "plane": 1}
_INCIDENT_NAMES = {v: k for k, v in _INCIDENT_CODES.items()}


def save_model(path, model):
    """Write a DT MeasurementModel as PNPM2; returns the lambda_i it stored.

    Raises for non-DT models and for a model without a truth fingerprint.
    """
    geometry = model.geometry
    if geometry is None:
        raise ConfigurationError("only DT models carry the PNPM2 geometry record")
    if model.scattering is None:
        raise ConfigurationError("PNPM2 stores S diag(u_in) factored operators")
    if model.truth_sha256 is None:
        raise ConfigurationError("PNPM2 stores the truth image's SHA-256; "
                                 "this model has none")
    n, M, I = model.n, model.M, model.num_components
    scattering = np.ascontiguousarray(model.scattering, dtype=np.complex64)
    incident = np.ascontiguousarray(model.incident, dtype=np.complex64)
    lambdas = factored_lambdas(scattering, incident)
    snr = model.input_snr_db if model.input_snr_db is not None else math.inf
    header = _HEADER.pack(VERSION, n, M, I,
                          geometry.domain_side, geometry.wavelength,
                          geometry.eps_background, geometry.ring_radius,
                          geometry.grid, geometry.num_transmitters,
                          geometry.num_receivers,
                          _INCIDENT_CODES[geometry.incident],
                          int(model.seed or 0), float(snr),
                          model.truth_sha256)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        fh.write(lambdas.astype("<f8").tobytes())
        fh.write(scattering.tobytes())
        for u_in, y in zip(incident, model.measurements):
            fh.write(u_in.tobytes())
            fh.write(np.ascontiguousarray(y, dtype=np.complex64).tobytes())
    return lambdas


def _check_lambdas(lambdas, scattering, incident):
    """Reject stored lambda_i outside their Gram-trace window (see above)."""
    if not np.all(np.isfinite(lambdas)):
        raise ConfigurationError("PNPM2 lambda_i block holds NaN or Inf")
    # ||s_j||^2 without an (M, n) temporary, which would set reconstruct's
    # peak memory
    column_norms = sum(np.einsum("mj,mj->j", part, part)
                       for part in (scattering.real, scattering.imag))
    traces = (incident.real ** 2 + incident.imag ** 2) @ column_norms
    slack = 1.0 + 2.0 * rounding_margin(scattering.shape)
    low = traces / min(scattering.shape) / slack
    high = traces * slack
    bad = np.flatnonzero((lambdas < low) | (lambdas > high))
    if bad.size:
        i = bad[0]
        raise ConfigurationError(
            f"PNPM2 lambda_{i} = {lambdas[i]!r} lies outside "
            f"[{low[i]!r}, {high[i]!r}], the window its Gram trace allows")


def load_model(path):
    """Load a PNPM2 (or legacy PNPM1) container into a MeasurementModel."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic == MAGIC:
            layout, version_wanted = _HEADER, VERSION
        elif magic == MAGIC_V1:
            layout, version_wanted = _HEADER_V1, 1
        else:
            raise ConfigurationError(f"bad magic {magic!r}: not a PNPM file")
        name = magic.decode()
        header = fh.read(layout.size)
        if len(header) != layout.size:
            raise ConfigurationError(f"truncated {name} header")
        (version, n, M, I, domain_side, wavelength, eps_background,
         ring_radius, grid, num_tx, num_rx, incident_code, seed,
         input_snr_db, *fingerprint) = layout.unpack(header)
        truth_sha256 = fingerprint[0] if fingerprint else None
        if version != version_wanted:
            raise ConfigurationError(f"unsupported {name} version {version}")
        if min(n, M, I) < 1:
            raise ConfigurationError(
                f"empty {name} dimensions n={n}, M={M}, I={I}")
        itemsize = np.dtype(np.complex64).itemsize
        lambda_bytes = 8 * I if truth_sha256 is not None else 0
        expected = (fh.tell() + lambda_bytes
                    + itemsize * (M * n + I * (n + M)))
        actual = os.fstat(fh.fileno()).st_size
        if actual != expected:
            raise ConfigurationError(f"{name} file has {actual} bytes, "
                                     f"its header implies {expected}")
        geometry = DtGeometry(domain_side=domain_side, grid=grid,
                              wavelength=wavelength,
                              eps_background=eps_background,
                              num_transmitters=num_tx, num_receivers=num_rx,
                              ring_radius=ring_radius,
                              incident=_INCIDENT_NAMES.get(incident_code))

        def read(count, dtype):
            size = count * np.dtype(dtype).itemsize
            raw = fh.read(size)
            if len(raw) != size:
                raise ConfigurationError(f"truncated {name} data block")
            return np.frombuffer(raw, dtype=dtype)

        def read_block(count):
            block = read(count, np.complex64).astype(np.complex128)
            if not np.all(np.isfinite(block)):
                raise ConfigurationError(f"{name} data block holds NaN or Inf")
            return block

        lambdas = (read(I, "<f8").astype(float)
                   if truth_sha256 is not None else None)
        scattering = read_block(M * n).reshape(M, n)
        incident = np.empty((I, n), dtype=complex)
        measurements = np.empty((I, M), dtype=complex)
        for i in range(I):
            incident[i] = read_block(n)
            measurements[i] = read_block(M)
    if lambdas is not None:
        _check_lambdas(lambdas, scattering, incident)
    return MeasurementModel(width=grid, height=grid,
                            measurements=measurements, scattering=scattering,
                            incident=incident, geometry=geometry, seed=seed,
                            input_snr_db=input_snr_db, lambdas=lambdas,
                            truth_sha256=truth_sha256)
