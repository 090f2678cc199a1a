"""Bessel/Hankel evaluation against mpmath high-precision oracle."""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from pnp_online.bessel import hankel1_0, hankel1_0_array

# J0 and Y0 are the real and imaginary parts of H0^(1) for x > 0.


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
    h = hankel1_0(x)
    assert h.real == pytest.approx(float(mpmath.besselj(0, x)),
                                   abs=5e-11, rel=5e-11)
    assert h.imag == pytest.approx(float(mpmath.bessely(0, x)),
                                   abs=5e-11, rel=5e-11)


def test_hankel_combines_j0_y0():
    # H0^(1) = J0 + i Y0, not J0 - i Y0
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


def test_hankel_array_matches_scalar_elementwise():
    rng = np.random.default_rng(0)
    x = np.concatenate([np.linspace(0.05, 11.95, 200),
                        np.linspace(12.0, 200.0, 200),
                        [1e-3, 11.999999, 12.000001, 500.0, 1000.0, 1e5],
                        rng.uniform(0.01, 3000.0, 2000)])
    scalar = np.array([hankel1_0(v) for v in x])
    array = hankel1_0_array(x.reshape(2, -1)).ravel()
    # Both evaluate the same recurrences and stop at the same term; only
    # numpy's and math's log/cos/sin may round differently.
    assert np.allclose(array, scalar, rtol=1e-14, atol=1e-15)


def test_hankel_array_rejects_nonpositive():
    with pytest.raises(ValueError):
        hankel1_0_array(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        hankel1_0_array(np.array([np.nan]))
