"""Reconstruction diagnostics: fixed-point distance, SNR, least dist."""

import math

import numpy as np

from pnp_online.errors import ConfigurationError
from pnp_online.solvers import operator_P

SNR_CAP_DB = 300.0


def dist_to_fix(model, denoiser, gamma, sigma, x):
    """Squared distance ||x - P(x)||^2 to the denoiser-gradient operator."""
    x = np.asarray(x, dtype=float).ravel()
    return float(np.sum((x - operator_P(model, denoiser, gamma, sigma, x)) ** 2))


def snr_db(reference, estimate):
    """Signal-to-error ratio 20 log10(||ref|| / ||est - ref||), capped at 300 dB."""
    reference = np.asarray(reference, dtype=float).ravel()
    estimate = np.asarray(estimate, dtype=float).ravel()
    if reference.shape != estimate.shape:
        raise ConfigurationError("reference and estimate dims must match")
    if not (np.isfinite(reference).all() and np.isfinite(estimate).all()):
        raise ConfigurationError("reference and estimate must be finite")
    ref_norm = np.linalg.norm(reference)
    if ref_norm == 0.0:
        raise ConfigurationError("reference must not be identically zero")
    err_norm = np.linalg.norm(estimate - reference)
    if err_norm == 0.0:
        return SNR_CAP_DB
    return min(SNR_CAP_DB, 20.0 * math.log10(ref_norm / err_norm))


def min_dist(dist):
    """The least dist of a trace, skipping the NaN of steps off the stride."""
    return float(np.nanmin(dist))
