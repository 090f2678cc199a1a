"""Flat key=value experiment configuration with command-line overrides.

The file format is deliberately diff-friendly: one `key = value` per line,
'#' comments. Unknown keys, and a key that a file sets twice, are rejected
so typos fail loudly at parse time (`--set` overrides the file), and
`validate` rejects values no command can use: an `algorithm`, `denoiser`,
`sample_mode` or `incident` outside its list, a non-finite float (only
`input_snr_db` may be inf, for noiseless data), a finite `input_snr_db`
outside [-SNR_DB_MAX, SNR_DB_MAX], a grid outside [GRID_MIN, GRID_MAX], an
`iterations` outside [0, ITERATIONS_MAX], a `gamma` or `gamma_scale` that
is not positive, a negative `lam` or `sigma`, a `dist_stride` below 1, a
`seed` outside [0, SEED_MAX], `transmitters` or `receivers` outside
[1, TRANSMITTERS_MAX] or [1, RECEIVERS_MAX], a `batch_size` outside
[1, BATCH_MAX], and a `cert_pairs` below 1. The loops read this config
itself, once cli.run_algorithm has set its gamma and sigma; certify bounds
its pairs by their work (cli.CERT_WORK_MAX).
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

from pnp_online.errors import ConfigurationError
from pnp_online.forward import INCIDENTS, DtGeometry
from pnp_online.phantoms import GRID_MIN, PHANTOMS

ALGORITHMS = ("ista", "admm", "pnp-ista", "pnp-admm", "pnp-sgd")
DENOISERS = ("tv", "filter", "identity")
SAMPLE_MODES = ("replacement", "cycle", "full")
# Pixels per side, from phantoms.GRID_MIN. A 256 x 256 DT model already
# holds a 48 x 65 536 complex Green matrix (50 MB) with the default
# receivers; simulate and reconstruct each peak near S + U plus one U-sized
# product (see TRANSMITTERS_MAX).
GRID_MAX = 256
# numpy's generators take no negative seed, and PNPM files store the seed
# as an int64.
SEED_MAX = 2 ** 63 - 1
# The largest finite |input_snr_db|: 10^(snr/10) is a finite, nonzero double
SNR_DB_MAX = 3000.0
# Ring elements. S holds receivers x grid^2 and the incident fields
# transmitters x grid^2 complex values, 1 GiB each at 1024 elements and
# GRID_MAX, and simulate certifies one lambda_i per transmitter. The
# largest accepted model needs about 3 GiB, S + U and one U-sized product,
# in simulate (which builds and writes S and U in blocks) and in
# reconstruct alike, and about 7e13 flops for its lambda_i.
TRANSMITTERS_MAX = RECEIVERS_MAX = 1024
# Solver or counter-example steps. Every step keeps its row until the CSV
# is written: counterexample held about 440 B a step (72 MB peak at 10^5
# steps, 437 MB at 10^6), and a reconstruct trace keeps batch_size drawn
# indices a step besides. 10^8 steps were killed for want of memory on a
# 7 GiB machine; the scripts and tests take at most 6 000.
ITERATIONS_MAX = 100_000
# Components per minibatch gradient: a draw forms batch_size x grid^2
# complex products, 1 GiB at 1024 and GRID_MAX, and the trace stores every
# drawn index.
BATCH_MAX = 1024


@dataclass
class ExperimentConfig:
    # forward model: DtGeometry's fields and defaults
    grid: int = DtGeometry.grid
    domain_side: float = DtGeometry.domain_side
    wavelength: float = DtGeometry.wavelength
    eps_background: float = DtGeometry.eps_background
    transmitters: int = DtGeometry.transmitters
    receivers: int = DtGeometry.receivers
    ring_radius: float = DtGeometry.ring_radius
    incident: str = DtGeometry.incident
    input_snr_db: float = 40.0
    # phantom
    phantom: str = "blobs"             # a name in PHANTOMS or a .pgm path
    f_max: float = 0.05                # contrast scale for [0,1] phantoms
    # reconstruction
    algorithm: str = "pnp-sgd"
    denoiser: str = "tv"
    lam: float = 5e-9                  # regularization weight lambda
    sigma: float | None = None         # denoiser strength; sqrt(gamma*lam) if unset
    gamma: float | None = None         # absolute step; overrides gamma_scale
    gamma_scale: float = 1.0           # gamma = gamma_scale / L
    accelerated: bool = False
    iterations: int = 500
    batch_size: int = 4                # also compare's per-iteration budget
    sample_mode: str = "replacement"
    seed: int = 0
    dist_stride: int | None = None
    record_timing: bool = True
    # certificates
    cert_pairs: int = 1000

    def validate(self):
        for name, allowed in (("algorithm", ALGORITHMS),
                              ("denoiser", DENOISERS),
                              ("sample_mode", SAMPLE_MODES),
                              ("incident", INCIDENTS)):
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigurationError(f"unknown {name} {value!r}")
        if self.phantom not in PHANTOMS:
            if not self.phantom.endswith(".pgm"):
                raise ConfigurationError(
                    f"phantom must be {', '.join(map(repr, PHANTOMS))}, or "
                    f"a .pgm path, got {self.phantom!r}")
            if not os.path.exists(self.phantom):
                raise ConfigurationError(f"phantom file {self.phantom!r} not found")
        if not 0 <= self.iterations <= ITERATIONS_MAX:
            raise ConfigurationError(
                f"iterations must lie in [0, {ITERATIONS_MAX}], "
                f"got {self.iterations}")
        for name, top in (("transmitters", TRANSMITTERS_MAX),
                          ("receivers", RECEIVERS_MAX),
                          ("batch_size", BATCH_MAX)):
            value = getattr(self, name)
            if not 1 <= value <= top:
                raise ConfigurationError(
                    f"{name} must lie in [1, {top}], got {value}")
        if self.cert_pairs < 1:
            raise ConfigurationError(
                f"cert_pairs must be >= 1, got {self.cert_pairs}")
        if not GRID_MIN <= self.grid <= GRID_MAX:
            raise ConfigurationError(
                f"grid must lie in [{GRID_MIN}, {GRID_MAX}], got {self.grid}")
        for name in _FLOAT_KEYS:
            value = getattr(self, name)
            if name == "input_snr_db" and value == math.inf:
                continue                      # noiseless measurements
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if SNR_DB_MAX < abs(self.input_snr_db) < math.inf:
            raise ConfigurationError(
                f"a finite input_snr_db must lie in [-{SNR_DB_MAX:g}, "
                f"{SNR_DB_MAX:g}], got {self.input_snr_db}")
        for name in ("gamma", "gamma_scale"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {value}")
        for name in ("lam", "sigma"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if self.dist_stride is not None and self.dist_stride < 1:
            raise ConfigurationError(
                f"dist_stride must be >= 1, got {self.dist_stride}")
        if not 0 <= self.seed <= SEED_MAX:
            raise ConfigurationError(
                f"seed must lie in [0, {SEED_MAX}], got {self.seed}")
        return self


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_FLOAT_KEYS = [name for name, f in _FIELDS.items()
               if f.type.startswith("float")]


def _coerce(name, raw):
    if name not in _FIELDS:
        raise ConfigurationError(f"unknown config key {name!r}")
    target = _FIELDS[name].type
    raw = raw.strip()
    if target == "bool":
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigurationError(f"bad boolean for {name}: {raw!r}")
    if target in ("float | None", "int | None"):
        if raw.lower() in ("none", ""):
            return None
        target = target.split()[0]
    if target == "int":
        return _parse_number(int, name, raw)
    if target == "float":
        return _parse_number(float, name, raw)
    return raw


def _parse_number(kind, name, raw):
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigurationError(
            f"bad {kind.__name__} for {name}: {raw!r}") from None
    if kind is float and math.isnan(value):
        raise ConfigurationError(f"{name} must not be NaN")
    return value


def parse_overrides(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigurationError(f"override {pair!r} is not key=value")
        key, _, value = pair.partition("=")
        out[key.strip()] = _coerce(key.strip(), value)
    return out


def load_config(path=None, overrides=None):
    """Build an ExperimentConfig from an optional file plus overrides."""
    values, lines_of = {}, {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigurationError(f"config file {path!r} not found")
        try:
            with open(path, encoding="utf-8") as fh:
                lines = list(fh)
        except UnicodeDecodeError as err:
            raise ConfigurationError(f"config file {path!r} is not UTF-8 "
                                     f"text ({err.reason})") from None
        for lineno, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            values[key] = _coerce(key, value)
            if key in lines_of:
                raise ConfigurationError(
                    f"{path}:{lineno}: {key} is set again (first on line "
                    f"{lines_of[key]})")
            lines_of[key] = lineno
    values.update(parse_overrides(overrides))
    seed_env = os.environ.get("PNP_SEED")
    if seed_env is not None:
        values["seed"] = _parse_number(int, "PNP_SEED", seed_env)
    return ExperimentConfig(**values).validate()


def dump_config(config):
    """Render the config back to the flat key=value format."""
    lines = []
    for f in dataclasses.fields(ExperimentConfig):
        lines.append(f"{f.name} = {getattr(config, f.name)}")
    return "\n".join(lines) + "\n"
