"""Order-zero Bessel functions J0, Y0 and the outgoing Hankel function H0^(1).

Small arguments use the ascending power series; large arguments use the
Hankel asymptotic expansion with optimal truncation. The crossover at
|x| = 12 balances series cancellation against the smallest asymptotic term,
giving roughly 1e-10 absolute accuracy on both sides.

`hankel1_0_array` evaluates the same recurrences over a whole array, each
element stopping at the term where the scalar loop stops. The scalar
`hankel1_0` is the reference that the tests check it against; nothing in
the package calls it, and perfbench/tracer.py counts its binding.
"""

import math

import numpy as np

EULER_GAMMA = 0.5772156649015328606065120900824

_SERIES_CUTOFF = 12.0
_MAX_SERIES_TERMS = 80
_MAX_ASYMPTOTIC_TERMS = 40
# Elements per block of hankel1_0_array's temporaries and of the row blocks
# of S, U and Y in build_dt_model and save_model (forward.row_slices).
ARRAY_BLOCK = 8192


def _j0_series(x):
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, _MAX_SERIES_TERMS):
        term *= -q / (k * k)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def _y0_series(x):
    # Y0(x) = (2/pi)[(ln(x/2) + gamma) J0(x) + sum_{k>=1} (-1)^{k+1} H_k q^k/(k!)^2]
    q = 0.25 * x * x
    term = 1.0
    harmonic = 0.0
    total = 0.0
    for k in range(1, _MAX_SERIES_TERMS):
        term *= -q / (k * k)
        harmonic += 1.0 / k
        contrib = -term * harmonic
        total += contrib
        if abs(contrib) < 1e-18 * max(abs(total), 1e-300):
            break
    return (2.0 / math.pi) * ((math.log(0.5 * x) + EULER_GAMMA) * _j0_series(x)
                              + total)


def _hankel1_0_asymptotic(x):
    # H0^(1)(x) ~ sqrt(2/(pi x)) e^{i(x - pi/4)} sum_k i^k a_k / x^k with
    # a_k = (-1)^k ((2k-1)!!)^2 / (k! 8^k); truncated at the smallest term.
    total = complex(1.0, 0.0)
    coef = 1.0  # a_k / x^k magnitude carrier, signs folded in below
    ik = complex(1.0, 0.0)
    prev_mag = 1.0
    for k in range(1, _MAX_ASYMPTOTIC_TERMS):
        coef *= -((2 * k - 1) ** 2) / (8.0 * k * x)
        ik *= 1j
        mag = abs(coef)
        if mag > prev_mag:
            break  # divergent tail: stop at the smallest term
        total += ik * coef
        prev_mag = mag
        if mag < 1e-18:
            break
    amplitude = math.sqrt(2.0 / (math.pi * x))
    phase = x - 0.25 * math.pi
    return amplitude * complex(math.cos(phase), math.sin(phase)) * total


def hankel1_0(x):
    """H0^(1)(x) = J0(x) + i Y0(x) for real x > 0."""
    x = float(x)
    if x <= 0.0:
        raise ValueError("H0^(1) requires x > 0")
    if x < _SERIES_CUTOFF:
        return complex(_j0_series(x), _y0_series(x))
    return _hankel1_0_asymptotic(x)


def _j0_series_array(x):
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    live = np.arange(x.size)
    for k in range(1, _MAX_SERIES_TERMS):
        if live.size == 0:
            break
        t = term[live] * (-q[live] / (k * k))
        s = total[live] + t
        term[live] = t
        total[live] = s
        live = live[~(np.abs(t) < 1e-18 * np.abs(s))]
    return total


def _y0_series_array(x, j0):
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.zeros_like(x)
    harmonic = 0.0
    live = np.arange(x.size)
    for k in range(1, _MAX_SERIES_TERMS):
        if live.size == 0:
            break
        harmonic += 1.0 / k
        t = term[live] * (-q[live] / (k * k))
        contrib = -t * harmonic
        s = total[live] + contrib
        term[live] = t
        total[live] = s
        live = live[~(np.abs(contrib) < 1e-18 * np.maximum(np.abs(s), 1e-300))]
    return (2.0 / math.pi) * ((np.log(0.5 * x) + EULER_GAMMA) * j0 + total)


def _hankel1_0_asymptotic_array(x):
    # The powers i^k cycle through 1, i, -1, -i, so the real and imaginary
    # parts of the sum are accumulated separately.
    total = [np.ones_like(x), np.zeros_like(x)]
    coef = np.ones_like(x)
    live = np.arange(x.size)
    for k in range(1, _MAX_ASYMPTOTIC_TERMS):
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


def hankel1_0_array(x):
    """H0^(1) elementwise over an array of real x > 0 (no Python loop per element)."""
    x = np.asarray(x, dtype=float)
    if np.any(~(x > 0.0)):
        raise ValueError("H0^(1) requires x > 0")
    flat = x.ravel()
    out = np.empty(flat.shape, dtype=complex)
    # Blocks bound the recurrences' temporaries, which would otherwise be
    # several copies of a Green matrix-sized array.
    for lo in range(0, flat.size, ARRAY_BLOCK):
        xb = flat[lo:lo + ARRAY_BLOCK]
        ob = out[lo:lo + ARRAY_BLOCK]
        small = xb < _SERIES_CUTOFF
        xs = xb[small]
        j0 = _j0_series_array(xs)
        ob.real[small] = j0
        ob.imag[small] = _y0_series_array(xs, j0)
        ob[~small] = _hankel1_0_asymptotic_array(xb[~small])
    return out.reshape(x.shape)
