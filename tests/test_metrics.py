"""Metrics: fixed-point distance, SNR formula, least recorded dist."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnp_online.config import ExperimentConfig
from pnp_online.denoisers import averaged_linear_filter, identity_denoiser
from pnp_online.errors import ConfigurationError
from pnp_online.metrics import SNR_CAP_DB, dist_to_fix, min_dist, snr_db
from pnp_online.solvers import operator_P, run_pnp_ista


def test_dist_to_fix_converged_iterate(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    den = averaged_linear_filter
    cfg = ExperimentConfig(gamma=gamma, sigma=0.1, iterations=5000, seed=0,
                           dist_stride=5000, record_timing=False)
    x, _ = run_pnp_ista(model, den, cfg)
    assert dist_to_fix(model, den, gamma, 0.1, x) <= 1e-12


def test_dist_to_fix_zero_residual_identity():
    from pnp_online.forward import DtGeometry
    from conftest import make_truth, zero_residual_dt_model
    geometry = DtGeometry(grid=8, transmitters=2, receivers=6)
    truth = make_truth(8, seed=3)
    model = zero_residual_dt_model(geometry, truth)
    d = dist_to_fix(model, identity_denoiser, 1.0 / model.lipschitz, 0.1,
                    truth.ravel())
    assert d < 1e-20


def test_dist_to_fix_matches_dense_recomputation(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    den = averaged_linear_filter
    rng = np.random.default_rng(0)
    x = rng.standard_normal(model.n) * 0.01
    # independent recomputation via dense matrices
    n = model.n
    grad = np.zeros(n)
    for u, y in zip(model.incident, model.measurements):
        A = model.scattering * u
        grad += np.real(A.conj().T @ (A @ x - y))
    grad /= model.num_components
    stepped = (x - gamma * grad).reshape(model.shape)
    px = den(stepped, 0.1).ravel()
    oracle = float(np.sum((x - px) ** 2))
    assert dist_to_fix(model, den, gamma, 0.1, x) == pytest.approx(
        oracle, rel=1e-10, abs=1e-18)


def test_dist_to_fix_matches_operator_P(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    den = averaged_linear_filter
    x = np.random.default_rng(1).standard_normal(model.n) * 0.01
    p = operator_P(model, den, gamma, 0.1, x)
    assert dist_to_fix(model, den, gamma, 0.1, x) == float(np.sum((x - p) ** 2))


# ---------------------------------------------------------------------- SNR

def test_snr_capped_at_300():
    ref = np.array([1.0, 2.0, 3.0])
    assert snr_db(ref, ref) == SNR_CAP_DB == 300.0


def test_snr_ten_percent_error_is_20db():
    ref = np.array([1.0, -2.0, 0.5])
    est = ref + ref * 0.1
    assert snr_db(ref, est) == pytest.approx(20.0, abs=1e-12)


def test_snr_zero_estimate_is_0db():
    ref = np.array([3.0, -4.0])
    assert snr_db(ref, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)


def test_snr_of_references_whose_norm_overflows():
    # read as the 300 dB cap: both norms overflowed to inf
    assert snr_db(np.array([1e200, 1e200]), np.ones(2)) == pytest.approx(
        0.0, abs=1e-9)


def test_snr_of_estimates_whose_error_norm_overflows():
    # ValueError: math domain error, as ||ref|| / inf is 0
    assert snr_db(np.ones(2), np.array([1e200, 1e200])) == pytest.approx(
        -4000.0, abs=1e-9)


def test_snr_of_references_whose_norm_underflows():
    # "reference must not be identically zero": ||ref||^2 underflowed to 0
    assert snr_db(np.array([1e-170, 1e-170]),
                  np.array([2e-170, 2e-170])) == pytest.approx(0.0, abs=1e-9)


def test_snr_of_norms_whose_ratio_underflows():
    # ||ref|| / ||est - ref|| = 1e-350 is 0 in double precision
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert snr_db(np.array([1e-150]), np.array([1e200])) == pytest.approx(
            -7000.0, abs=1e-9)


@pytest.mark.parametrize("scale", [1e-158, 1e-160, 1e-200])
def test_snr_of_norms_whose_square_is_subnormal(scale):
    # ||ref||^2 lost digits as a subnormal: this read 20.0000075 dB at
    # 1e-158 and 19.9973 dB at 1e-160
    ref = np.array([1.0, 0.3, 0.7])
    assert snr_db(ref * scale, ref * 1.1 * scale) == pytest.approx(
        20.0, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=1e-6, max_value=1e6))
def test_snr_of_finite_nonzero_norms_is_the_plain_formula(seed, scale):
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(64) * scale
    est = ref + rng.standard_normal(64) * scale * rng.uniform(1e-4, 10.0)
    plain = 20.0 * math.log10(np.linalg.norm(ref)
                              / np.linalg.norm(est - ref))
    assert snr_db(ref, est) == min(SNR_CAP_DB, plain)


def test_snr_rejects_zero_reference():
    with pytest.raises(ConfigurationError):
        snr_db(np.zeros(3), np.ones(3))


@pytest.mark.parametrize("reference, estimate", [
    ([1.0, 2.0], [1.0, math.nan]),     # read as the 300 dB cap
    ([1.0, math.nan], [1.0, 2.0]),     # read as the 300 dB cap
    ([1.0, 2.0], [1.0, math.inf]),     # ValueError: math domain error
    ([1.0, -math.inf], [1.0, 2.0])])
def test_snr_rejects_nonfinite_input(reference, estimate):
    with pytest.raises(ConfigurationError, match="must be finite"):
        snr_db(np.array(reference), np.array(estimate))


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=1.01, max_value=5.0))
def test_snr_strictly_decreasing_in_error_norm(scale, factor):
    ref = np.array([1.0, 2.0, -1.0])
    err = np.array([0.1, -0.2, 0.3]) * scale
    assert snr_db(ref, ref + err * factor) < snr_db(ref, ref + err)


# --------------------------------------------- sweep summary: least dist

def test_summarize_single_iteration():
    assert min_dist([0.7]) == 0.7


def test_summarize_monotone_sequence_min_is_last():
    assert min_dist([5.0, 3.0, 1.0, 0.5]) == 0.5


def test_summarize_skips_nan_strides():
    assert min_dist([4.0, float("nan"), 2.0]) == 2.0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                max_size=50))
def test_summarize_min_is_global_min(dist):
    assert min_dist(dist) == min(dist)
