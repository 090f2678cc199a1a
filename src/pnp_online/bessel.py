"""Order-zero Bessel functions J0, Y0 and the outgoing Hankel function H0^(1).

Small arguments use the ascending power series; large arguments use the
Hankel asymptotic expansion with optimal truncation. The crossover at
|x| = 12 balances series cancellation against the smallest asymptotic term,
giving roughly 1e-10 absolute accuracy on both sides.

`hankel1_0_array` evaluates these recurrences over a whole array. It works
in blocks of ARRAY_BLOCK elements. A block with no element below the cutoff
is evaluated in place, and there the asymptotic recurrence runs on whole
arrays until the first element stops (by the smallest-term rule or the
1e-18 rule), then on index arrays of the elements still live; the series
loops gather the elements below the cutoff. Each element gets the same
operations in the same order either way, so the tests check it bit for
bit against the gather-based loops, and against mpmath. Its rejection of
any x outside 0 < x < inf, NaN included, is the Green path's one input
check.
`hankel1_0` is the kernel at one point; nothing in the package calls it,
and perfbench/tracer.py counts its binding.
"""

import math

import numpy as np

from pnp_online.errors import ConfigurationError

EULER_GAMMA = 0.5772156649015328606065120900824

_SERIES_CUTOFF = 12.0
_MAX_SERIES_TERMS = 80
_MAX_ASYMPTOTIC_TERMS = 40
# Elements per block of hankel1_0_array's temporaries and of the row blocks
# of S, U and Y in build_dt_model and save_model (forward.row_slices).
ARRAY_BLOCK = 8192


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


# `live` indexes the elements whose asymptotic recurrence still runs: every
# element, as a slice, until the first one stops, so the whole-array steps
# gather and scatter nothing; then an index array of the rest.
_EVERY = slice(None)


def _narrow(live, keep):
    """The elements of `live` that the mask `keep` over them retains."""
    return np.flatnonzero(keep) if live is _EVERY else live[keep]


def _hankel1_0_asymptotic_array(x, out):
    # The powers i^k cycle through 1, i, -1, -i, so the real and imaginary
    # parts of the sum are accumulated separately.
    total = [np.ones_like(x), np.zeros_like(x)]
    coef = np.ones_like(x)
    prev_mag = np.ones_like(x)   # |coef| of the live elements
    live = _EVERY
    for k in range(1, _MAX_ASYMPTOTIC_TERMS):
        c = coef[live] * (-((2 * k - 1) ** 2) / (8.0 * k * x[live]))
        mag = np.abs(c)
        grows = mag > prev_mag
        if grows.any():
            keep = ~grows
            live, c, mag = _narrow(live, keep), c[keep], mag[keep]
            if live.size == 0:
                break
        part = total[k % 2]
        if k % 4 < 2:
            part[live] += c
        else:
            part[live] -= c
        coef[live] = c
        prev_mag = mag
        stop = mag < 1e-18
        if stop.any():
            keep = ~stop
            live, prev_mag = _narrow(live, keep), mag[keep]
            if live.size == 0:
                break
    amplitude = np.sqrt(2.0 / (math.pi * x))
    phase = x - 0.25 * math.pi
    p_re = amplitude * np.cos(phase)
    p_im = amplitude * np.sin(phase)
    t_re, t_im = total
    out.real = p_re * t_re - p_im * t_im
    out.imag = p_re * t_im + p_im * t_re
    return out


def hankel1_0_array(x):
    """H0^(1) elementwise over an array of real x, 0 < x < inf (no Python
    loop per element)."""
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0.0) & (x < math.inf)):
        raise ConfigurationError("H0^(1) requires 0 < x < inf")
    flat = x.ravel()
    out = np.empty(flat.shape, dtype=complex)
    # Blocks bound the recurrences' temporaries, which would otherwise be
    # several copies of a Green matrix-sized array.
    for lo in range(0, flat.size, ARRAY_BLOCK):
        xb = flat[lo:lo + ARRAY_BLOCK]
        ob = out[lo:lo + ARRAY_BLOCK]
        small = xb < _SERIES_CUTOFF
        if not small.any():     # a whole asymptotic block: no gather or scatter
            _hankel1_0_asymptotic_array(xb, ob)
            continue
        xs = xb[small]
        j0 = _j0_series_array(xs)
        ob.real[small] = j0
        ob.imag[small] = _y0_series_array(xs, j0)
        if not small.all():
            big = ~small
            ob[big] = _hankel1_0_asymptotic_array(
                xb[big], np.empty(np.count_nonzero(big), dtype=complex))
    return out.reshape(x.shape)


def hankel1_0(x):
    """H0^(1)(x) for one real x, 0 < x < inf: hankel1_0_array at one
    point."""
    return hankel1_0_array([x])[0]
