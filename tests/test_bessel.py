"""Bessel/Hankel evaluation against mpmath high-precision oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnp_online import bessel
from pnp_online.bessel import hankel1_0, hankel1_0_array
from pnp_online.errors import ConfigurationError
from pnp_online.forward import DtGeometry

# J0 and Y0 are the real and imaginary parts of H0^(1) for x > 0. hankel1_0
# is hankel1_0_array at one point.


def test_j0_y0_published_ten_digit_values():
    # classical 10-digit table values at x = 1
    h = hankel1_0(1.0)
    assert h.real == pytest.approx(0.7651976866, abs=1e-9)
    assert h.imag == pytest.approx(0.0882569642, abs=1e-9)


def test_j0_at_zero():
    # H0^(1) is singular at 0, so J0(0) = 1 is checked as the limit: once
    # x^2 / 4 underflows, the series is exactly its first term
    assert hankel1_0(1e-300).real == 1.0
    assert np.all(hankel1_0_array(np.array([1e-300, 1e-200])).real == 1.0)


def test_y0_rejects_nonpositive():
    # Y0, and with it H0^(1), is singular at 0
    with pytest.raises(ValueError):
        hankel1_0(0.0)
    with pytest.raises(ValueError):
        hankel1_0(-1.0)


@pytest.mark.parametrize("x", np.concatenate([
    np.linspace(0.05, 11.95, 40),      # series branch
    np.linspace(12.05, 200.0, 40),     # asymptotic branch
    [11.999999, 12.000001, 500.0, 1000.0],
]).tolist())
def test_j0_y0_vs_mpmath(x):
    mpmath = pytest.importorskip("mpmath")
    h = hankel1_0(x)
    assert h.real == pytest.approx(float(mpmath.besselj(0, x)),
                                   abs=5e-11, rel=5e-11)
    assert h.imag == pytest.approx(float(mpmath.bessely(0, x)),
                                   abs=5e-11, rel=5e-11)


def test_hankel_combines_j0_y0():
    # H0^(1) = J0 + i Y0, not J0 - i Y0
    mpmath = pytest.importorskip("mpmath")
    for x in (0.3, 1.7, 25.0):
        assert hankel1_0(x) == pytest.approx(complex(mpmath.hankel1(0, x)),
                                             abs=5e-11, rel=5e-11)


def test_hankel_magnitude_asymptotic_decay():
    # |H0(x)| ~ sqrt(2/(pi x)) within 1% for x > 50
    for x in (60.0, 120.0, 400.0):
        expected = np.sqrt(2.0 / (np.pi * x))
        assert abs(hankel1_0(x)) == pytest.approx(expected, rel=0.01)


def test_determinism_bit_identical():
    assert hankel1_0(3.7) == hankel1_0(3.7)
    assert hankel1_0(77.7) == hankel1_0(77.7)


def test_hankel_array_vs_mpmath_elementwise():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    x = np.concatenate([np.linspace(0.05, 11.95, 200),
                        np.linspace(12.0, 200.0, 200),
                        [1e-3, 11.999999, 12.000001, 500.0, 1000.0, 1e5],
                        rng.uniform(0.01, 3000.0, 2000)])
    array = hankel1_0_array(x.reshape(2, -1)).ravel()
    for v, h in zip(x, array):
        assert h.real == pytest.approx(float(mpmath.besselj(0, v)),
                                       abs=5e-11, rel=5e-11)
        assert h.imag == pytest.approx(float(mpmath.bessely(0, v)),
                                       abs=5e-11, rel=5e-11)


def test_hankel_array_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        hankel1_0_array(np.array([1.0, 0.0]))
    with pytest.raises(ConfigurationError):
        hankel1_0_array(np.array([np.nan]))


# ---------------------------------------------------- bitwise array oracle

def _reference_asymptotic(x):
    total = [np.ones_like(x), np.zeros_like(x)]
    coef = np.ones_like(x)
    live = np.arange(x.size)
    for k in range(1, bessel._MAX_ASYMPTOTIC_TERMS):
        if live.size == 0:
            break
        c = coef[live] * (-((2 * k - 1) ** 2) / (8.0 * k * x[live]))
        mag = np.abs(c)
        keep = ~(mag > np.abs(coef[live]))
        live, c, mag = live[keep], c[keep], mag[keep]
        part = total[k % 2]
        if k % 4 < 2:
            part[live] += c
        else:
            part[live] -= c
        coef[live] = c
        live = live[~(mag < 1e-18)]
    amplitude = np.sqrt(2.0 / (math.pi * x))
    phase = x - 0.25 * math.pi
    p_re = amplitude * np.cos(phase)
    p_im = amplitude * np.sin(phase)
    t_re, t_im = total
    out = np.empty(x.shape, dtype=complex)
    out.real = p_re * t_re - p_im * t_im
    out.imag = p_re * t_im + p_im * t_re
    return out


def reference_hankel1_0_array(x):
    """The gather-based array kernel: every asymptotic step indexes the
    elements still live, and each block splits at the series cutoff (the
    series loops, gather-based too, are the package's own).

    hankel1_0_array must reproduce it bit for bit; it is the oracle for the
    whole-array steps, not a second implementation to use.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.shape, dtype=complex)
    for lo in range(0, flat.size, bessel.ARRAY_BLOCK):
        xb = flat[lo:lo + bessel.ARRAY_BLOCK]
        ob = out[lo:lo + bessel.ARRAY_BLOCK]
        small = xb < bessel._SERIES_CUTOFF
        xs = xb[small]
        j0 = bessel._j0_series_array(xs)
        ob.real[small] = j0
        ob.imag[small] = bessel._y0_series_array(xs, j0)
        ob[~small] = _reference_asymptotic(xb[~small])
    return out.reshape(x.shape)


@pytest.mark.parametrize("grid, transmitters, receivers",
                         [(32, 16, 48), (48, 24, 72)])
def test_hankel_array_matches_oracle_on_benchmark_distances(
        grid, transmitters, receivers):
    # every k_b r that build_dt_model passes at the benchmark's sizes
    geometry = DtGeometry(grid=grid, transmitters=transmitters,
                          receivers=receivers)
    pixels = geometry.pixel_centers()
    x = geometry.wavenumber * np.concatenate([
        np.linalg.norm(sources[:, None, :] - pixels[None, :, :], axis=2)
        for sources in (geometry.ring_positions(receivers),
                        geometry.ring_positions(transmitters))])
    assert (hankel1_0_array(x).tobytes()
            == reference_hankel1_0_array(x).tobytes())


# (low, high, log-uniform): both sides of the series cutoff; terms that
# stop by growing, which they do for x in [12, 21]; and every regime
_RANGES = [(11.0, 13.0, False), (12.0, 21.0, False), (0.01, 60.0, False),
           (1e-3, 1e6, True)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), bounds=st.sampled_from(_RANGES),
       size=st.integers(1, 2 * bessel.ARRAY_BLOCK + 100),
       columns=st.sampled_from([1, 3, 7]),
       extra=st.lists(st.floats(min_value=1e-300, max_value=1e300),
                      max_size=8))
def test_hankel_array_matches_oracle_bitwise(seed, bounds, size, columns,
                                             extra):
    low, high, log = bounds
    rng = np.random.default_rng(seed)
    x = (np.exp(rng.uniform(math.log(low), math.log(high), size)) if log
         else rng.uniform(low, high, size))
    x = np.concatenate([x, extra])
    # sizes that are no multiple of the block, and 2-D shapes
    x = x[:len(x) - len(x) % columns].reshape(-1, columns)
    assert (hankel1_0_array(x).tobytes()
            == reference_hankel1_0_array(x).tobytes())


@pytest.mark.parametrize("low, high", [(12.0, 21.0), (11.0, 13.0)])
def test_hankel_array_matches_oracle_on_dense_draws(low, high):
    # A reordered product in one term moves the output's last bit for only
    # a few elements in 1e5, too few for the hypothesis draws to meet.
    x = np.random.default_rng(1).uniform(low, high, 2 ** 20)
    assert (hankel1_0_array(x).tobytes()
            == reference_hankel1_0_array(x).tobytes())
