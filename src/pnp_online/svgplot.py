"""Minimal deterministic SVG line plots (no plotting dependency).

Output is a pure function of the input series: floats are formatted with
fixed precision so regeneration from the same data is byte-identical.
"""

import math

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f"]

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 30, 50


def _fmt(value):
    return f"{value:.3f}"


def _finite(values):
    return [v for v in values if v is not None and math.isfinite(v)]


def _axis_range(values, log_scale):
    vals = _finite(values)
    if log_scale:
        vals = [v for v in vals if v > 0]
    if not vals:
        return (0.1, 1.0) if log_scale else (0.0, 1.0)
    lo, hi = min(vals), max(vals)
    if log_scale:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        if lo_e == hi_e:
            hi_e += 1
        return 10.0 ** lo_e, 10.0 ** hi_e
    if lo == hi:
        return lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo, hi, log_scale):
    if log_scale:
        lo_e = int(round(math.log10(lo)))
        hi_e = int(round(math.log10(hi)))
        step = max(1, (hi_e - lo_e) // 8)
        return [10.0 ** e for e in range(lo_e, hi_e + 1, step)]
    span = hi - lo
    raw = span / 6.0
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-12 * max(1.0, abs(hi)):
        ticks.append(v)
        v += step
    return ticks


def _tick_label(value, log_scale):
    if log_scale:
        return f"1e{int(round(math.log10(value)))}"
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.01:
        return f"{value:.1e}"
    return f"{value:g}"


def line_plot(path, series, title="", xlabel="", ylabel="", log_y=True):
    """Write an SVG line plot.

    series: list of (label, xs, ys); non-finite (and, on a log y scale,
    non-positive) points are dropped from the polylines.
    """
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = _axis_range(all_x, False)
    y_lo, y_hi = _axis_range(all_y, log_y)

    def sx(x):
        frac = (x - x_lo) / (x_hi - x_lo)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(y):
        if log_y:
            frac = (math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        else:
            frac = (y - y_lo) / (y_hi - y_lo)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
             f'height="{HEIGHT}" font-family="monospace" font-size="11">',
             f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    # axes box
    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
                 f'width="{WIDTH - MARGIN_L - MARGIN_R}" '
                 f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" '
                 f'stroke="black"/>')
    if title:
        parts.append(f'<text x="{WIDTH // 2}" y="18" text-anchor="middle">'
                     f'{title}</text>')
    for tick in _ticks(x_lo, x_hi, False):
        px = sx(tick)
        parts.append(f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN_B}" '
                     f'x2="{_fmt(px)}" y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 18}" '
                     f'text-anchor="middle">{_tick_label(tick, False)}</text>')
    for tick in _ticks(y_lo, y_hi, log_y):
        py = sy(tick)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(py)}" '
                     f'x2="{MARGIN_L}" y2="{_fmt(py)}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(py)}" '
                     f'text-anchor="end" dominant-baseline="middle">'
                     f'{_tick_label(tick, log_y)}</text>')
    if xlabel:
        parts.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" '
                     f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {HEIGHT // 2})">{ylabel}</text>')

    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = []
        for x, y in zip(xs, ys):
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            if log_y and y <= 0:
                continue
            points.append(f"{_fmt(sx(x))},{_fmt(sy(y))}")
        if points:
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="1.5" points="{" ".join(points)}"/>')
        ly = MARGIN_T + 14 + 14 * idx
        parts.append(f'<line x1="{WIDTH - MARGIN_R - 150}" y1="{ly - 4}" '
                     f'x2="{WIDTH - MARGIN_R - 130}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{WIDTH - MARGIN_R - 125}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")
