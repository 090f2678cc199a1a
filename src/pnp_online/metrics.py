"""Reconstruction diagnostics: fixed-point distance, SNR, least dist."""

import math
import sys

import numpy as np

from pnp_online.errors import ConfigurationError
from pnp_online.solvers import operator_P

SNR_CAP_DB = 300.0
# The least norm whose square is a normal float: below it ||v||^2 is subnormal
# and loses digits.
_NORM_MIN = math.sqrt(sys.float_info.min)


def dist_to_fix(model, denoiser, gamma, sigma, x):
    """Squared distance ||x - P(x)||^2 to the denoiser-gradient operator."""
    x = np.asarray(x, dtype=float).ravel()
    return float(np.sum((x - operator_P(model, denoiser, gamma, sigma, x)) ** 2))


def snr_db(reference, estimate):
    """Signal-to-error ratio 20 log10(||ref|| / ||est - ref||), capped at 300 dB.

    Where a norm or their ratio over- or underflows, or a norm's square
    would be subnormal, the norms are taken with math.hypot, which scales,
    and divided in logs.
    """
    reference = np.asarray(reference, dtype=float).ravel()
    estimate = np.asarray(estimate, dtype=float).ravel()
    if reference.shape != estimate.shape:
        raise ConfigurationError("reference and estimate dims must match")
    if not (np.isfinite(reference).all() and np.isfinite(estimate).all()):
        raise ConfigurationError("reference and estimate must be finite")
    with np.errstate(over="ignore"):
        ref_norm = np.linalg.norm(reference)
        err_norm = np.linalg.norm(estimate - reference)
    if _NORM_MIN <= ref_norm < math.inf and _NORM_MIN <= err_norm < math.inf:
        if ref_norm / err_norm > 0.0:
            return min(SNR_CAP_DB, 20.0 * math.log10(ref_norm / err_norm))
    elif ref_norm == 0.0 and not reference.any():
        raise ConfigurationError("reference must not be identically zero")
    half_error = estimate / 2.0 - reference / 2.0   # finite, unlike the error
    if not half_error.any():
        return SNR_CAP_DB
    return min(SNR_CAP_DB, 20.0 * (math.log10(math.hypot(*reference))
                                   - math.log10(math.hypot(*half_error))
                                   - math.log10(2.0)))


def min_dist(dist):
    """The least dist of a trace, skipping the NaN of steps off the stride."""
    return float(np.nanmin(dist))
