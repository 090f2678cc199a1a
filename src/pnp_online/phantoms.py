"""Synthetic phantoms and PGM-sourced phantoms, normalized to [0, 1]."""

import numpy as np

from pnp_online.errors import ConfigurationError
from pnp_online.pgm import read_pgm


def phantom_blobs(grid, seed=0):
    """Sum of 3-6 seeded Gaussian bumps, clipped to [0, 1]."""
    rng = np.random.default_rng(seed)
    num_bumps = int(rng.integers(3, 7))
    coords = np.linspace(0.0, 1.0, grid)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    out = np.zeros((grid, grid))
    for _ in range(num_bumps):
        cx, cy = rng.uniform(0.2, 0.8, size=2)
        width = rng.uniform(0.05, 0.2)
        amp = rng.uniform(0.4, 1.0)
        out += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * width ** 2))
    return np.clip(out, 0.0, 1.0)


def phantom_checker(grid, block=4):
    """Alternating 0/1 blocks."""
    idx = np.arange(grid) // block
    return ((idx[:, None] + idx[None, :]) % 2).astype(float)


def phantom_from_pgm(path, grid=None):
    """Load a PGM and normalize to [0, 1]; optional nearest-neighbor resample."""
    pixels = read_pgm(path).astype(float)
    maxval = pixels.max()
    if maxval > 0:
        pixels = pixels / maxval
    if grid is not None and pixels.shape != (grid, grid):
        rows = (np.arange(grid) * pixels.shape[0] // grid).clip(0, pixels.shape[0] - 1)
        cols = (np.arange(grid) * pixels.shape[1] // grid).clip(0, pixels.shape[1] - 1)
        pixels = pixels[np.ix_(rows, cols)]
    return pixels


# The phantoms by name, each a function of (grid, seed).
PHANTOMS = {"blobs": phantom_blobs,
            "checker": lambda grid, seed: phantom_checker(grid)}
GRID_MIN = 8  # pixels per side that the phantoms need


def phantom_generate(name, grid, seed=0):
    """The phantom `name`, one of PHANTOMS or a .pgm path, as a (grid, grid)
    array with pixel values in [0, 1]."""
    if grid < GRID_MIN:
        raise ConfigurationError(f"grid must be >= {GRID_MIN}")
    if name in PHANTOMS:
        return PHANTOMS[name](grid, seed)
    if name.endswith(".pgm"):
        return phantom_from_pgm(name, grid)
    raise ConfigurationError(f"unknown phantom kind {name!r}")
