"""Metrics: fixed-point distance, SNR formula, trace summaries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnp_online.denoisers import AveragedFilterDenoiser, IdentityDenoiser
from pnp_online.errors import ConfigurationError
from pnp_online.metrics import (SNR_CAP_DB, TraceSummary, dist_to_fix, snr_db,
                                summarize)
from pnp_online.solvers import SolverConfig, operator_P, run_pnp_ista


def test_dist_to_fix_converged_iterate(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    den = AveragedFilterDenoiser()
    cfg = SolverConfig(gamma=gamma, sigma=0.1, iterations=5000, seed=0,
                       record_trace=False, record_timing=False)
    x, _ = run_pnp_ista(model, den, cfg)
    assert dist_to_fix(model, den, gamma, 0.1, x) <= 1e-12


def test_dist_to_fix_zero_residual_identity():
    import math as _math
    from pnp_online.forward import DtGeometry, build_dt_model
    from conftest import make_truth
    geometry = DtGeometry(grid=8, num_transmitters=2, num_receivers=6)
    truth = make_truth(8, seed=3)
    model = build_dt_model(geometry, truth, seed=0, input_snr_db=_math.inf)
    d = dist_to_fix(model, IdentityDenoiser(), 1.0 / model.lipschitz, 0.1,
                    truth.pixels)
    assert d < 1e-20


def test_dist_to_fix_matches_dense_recomputation(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    den = AveragedFilterDenoiser()
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
    px = den.denoise(stepped, 0.1).ravel()
    oracle = float(np.sum((x - px) ** 2))
    assert dist_to_fix(model, den, gamma, 0.1, x) == pytest.approx(
        oracle, rel=1e-10, abs=1e-18)


def test_dist_to_fix_matches_operator_P(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    den = AveragedFilterDenoiser()
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


def test_snr_rejects_zero_reference():
    with pytest.raises(ConfigurationError):
        snr_db(np.zeros(3), np.ones(3))


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=1.01, max_value=5.0))
def test_snr_strictly_decreasing_in_error_norm(scale, factor):
    ref = np.array([1.0, 2.0, -1.0])
    err = np.array([0.1, -0.2, 0.3]) * scale
    assert snr_db(ref, ref + err * factor) < snr_db(ref, ref + err)


# ------------------------------------------------------------------ summary

class _FakeTrace:
    def __init__(self, dist, elapsed=None, snr=None):
        self.dist = list(dist)
        self.elapsed = list(elapsed or [])
        self.snr = list(snr or [float("nan")] * len(self.dist))

    def __len__(self):
        return len(self.dist)


def test_summarize_single_iteration():
    s = summarize(_FakeTrace([0.7]))
    assert s.min_dist == 0.7
    assert s.running_avg_dist.tolist() == [0.7]
    assert s.iterations == 1


def test_summarize_monotone_sequence_min_is_last():
    s = summarize(_FakeTrace([5.0, 3.0, 1.0, 0.5]))
    assert s.min_dist == 0.5


def test_summarize_hand_arithmetic():
    s = summarize(_FakeTrace([4.0, 2.0, 6.0]))
    assert np.allclose(s.running_avg_dist, [4.0, 3.0, 4.0])
    assert s.min_dist == 2.0


def test_summarize_min_le_mean_property():
    rng = np.random.default_rng(0)
    dist = rng.uniform(0.1, 5.0, size=40).tolist()
    s = summarize(_FakeTrace(dist))
    for avg in s.running_avg_dist:
        assert s.min_dist <= avg + 1e-12


def test_summarize_skips_nan_strides():
    dist = [4.0, float("nan"), 2.0]
    s = summarize(_FakeTrace(dist))
    assert s.min_dist == 2.0
    # NaN entries are excluded from the running averages
    assert s.running_avg_dist[-1] == pytest.approx(3.0)


def test_summarize_reports_timing():
    s = summarize(_FakeTrace([1.0, 0.5], elapsed=[0.1, 0.3]))
    assert s.per_iteration_seconds == pytest.approx(0.15)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                max_size=50))
def test_summarize_min_is_global_min(dist):
    s = summarize(_FakeTrace(dist))
    assert s.min_dist == min(dist)
