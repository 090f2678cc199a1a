"""PNPM2 binary container for simulated DT measurement sets.

Layout, little-endian:
- magic "PNPM2";
- a fixed-size header: format-version byte 2, the dimensions n, M and I,
  the geometry record (the incident as its index in `forward.INCIDENTS`),
  the seed, the input SNR, and the SHA-256 (32 bytes) of the simulated
  truth, `forward.truth_sha256` of the scaled phantom;
- I float64 lambda_i = lambda_max(H_i^H H_i), certified upper bounds from
  `lambda_max_bound` (L is their max);
- row-major complex64 blocks: the shared scattering matrix S once, then one
  incident field u_i and one measurement vector y_i per illumination.

`build_dt_model` rounds S, U and Y to complex64 precision, so the
lambda_i a model computes are certified for the very operator
`load_model` returns. `save_model` writes them, and checks before it opens
the file that every block is finite and exact in complex64, so the bytes
it writes are that operator. It writes S a block of rows at a time
(`forward.row_slices`) and each u_i and y_i on its own, so it holds no
complex64 copy of S, U or Y. The loader reads S in the same row blocks
and widens each block into its rows of a complex128 S, once, which is
exact, so the solvers' products need no per-call upcast, and it holds no
complex64 copy of S either; saving a loaded model reproduces the file
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

This is the one layout that loads. A file of the older version-1 layout,
which stored neither the fingerprint nor the lambda_i, has another magic
and is rejected like any other; simulate it again.
"""

import os
import struct

import numpy as np

from pnp_online.errors import ConfigurationError
from pnp_online.forward import (INCIDENTS, DtGeometry, MeasurementModel,
                                row_slices)
from pnp_online.linops import rounding_margin
# Unused here; perfbench/tracer.py patches this binding.
from pnp_online.linops import power_iteration_lipschitz  # noqa: F401

MAGIC = b"PNPM2"
VERSION = 2
_HEADER = struct.Struct("<B III dddd III B q d 32s")
# The geometry record's fields in header order; the incident's code follows.
_HEADER_GEOMETRY = ("domain_side", "wavelength", "eps_background",
                    "ring_radius", "grid", "transmitters", "receivers")


def _data_blocks(model):
    """The file's data blocks in order: S in row blocks, then u_i, y_i."""
    for rows in row_slices(model.M, model.n):
        yield model.scattering[rows]
    for u_in, y in zip(model.incident, model.measurements):
        yield u_in
        yield y


def save_model(path, model):
    """Write a MeasurementModel as PNPM2, with its lambda_i.

    Raises, before the file is opened, unless S, U and Y are finite and
    exact in complex64, as `build_dt_model` and `load_model` leave them.
    """
    if not all(np.all(np.isfinite(block))
               and np.array_equal(block.astype(np.complex64), block)
               for block in _data_blocks(model)):
        raise ConfigurationError("S, u_i or y_i are not finite complex64 "
                                 "values; no PNPM2 file written")
    geometry = model.geometry
    header = _HEADER.pack(VERSION, model.n, model.M, model.num_components,
                          *(getattr(geometry, k) for k in _HEADER_GEOMETRY),
                          INCIDENTS.index(geometry.incident),
                          model.seed, model.input_snr_db, model.truth_sha256)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        fh.write(model.lambdas.astype("<f8").tobytes())
        for block in _data_blocks(model):
            fh.write(block.astype(np.complex64))


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
    """Load a PNPM2 container into a MeasurementModel."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ConfigurationError(f"bad magic {magic!r}: not a PNPM2 file")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ConfigurationError("truncated PNPM2 header")
        (version, n, M, I, *stored, incident_code, seed, input_snr_db,
         truth_sha256) = _HEADER.unpack(header)
        if version != VERSION:
            raise ConfigurationError(f"unsupported PNPM2 version {version}")
        if min(n, M, I) < 1:
            raise ConfigurationError(
                f"empty PNPM2 dimensions n={n}, M={M}, I={I}")
        itemsize = np.dtype(np.complex64).itemsize
        expected = fh.tell() + 8 * I + itemsize * (M * n + I * (n + M))
        actual = os.fstat(fh.fileno()).st_size
        if actual != expected:
            raise ConfigurationError(f"PNPM2 file has {actual} bytes, "
                                     f"its header implies {expected}")
        # a code past INCIDENTS gives no name, which DtGeometry rejects
        geometry = DtGeometry(
            **dict(zip(_HEADER_GEOMETRY, stored)),
            incident=(INCIDENTS[incident_code]
                      if incident_code < len(INCIDENTS) else None))

        def read(count, dtype):
            size = count * np.dtype(dtype).itemsize
            raw = fh.read(size)
            if len(raw) != size:
                raise ConfigurationError("truncated PNPM2 data block")
            return np.frombuffer(raw, dtype=dtype)

        def read_block(out):
            """Fill the complex128 view `out` from the next complex64s."""
            block = read(out.size, np.complex64)
            if not np.all(np.isfinite(block)):
                raise ConfigurationError("PNPM2 data block holds NaN or Inf")
            out[...] = block.reshape(out.shape)

        lambdas = read(I, "<f8").astype(float)
        scattering = np.empty((M, n), dtype=complex)
        for rows in row_slices(M, n):
            read_block(scattering[rows])
        incident = np.empty((I, n), dtype=complex)
        measurements = np.empty((I, M), dtype=complex)
        for i in range(I):
            read_block(incident[i])
            read_block(measurements[i])
    _check_lambdas(lambdas, scattering, incident)
    return MeasurementModel(measurements=measurements, scattering=scattering,
                            incident=incident, geometry=geometry, seed=seed,
                            input_snr_db=input_snr_db, lambdas=lambdas,
                            truth_sha256=truth_sha256)
