"""Deterministic standalone SVG scatter/fit plots.

No graphics dependency: the chart is assembled as text.  Same input, same
bytes out (coordinates are formatted to fixed precision and nothing
time- or id-based is emitted), which makes the output diffable and easy to
assert on in tests.
"""

from __future__ import annotations

import math
from html import escape

from .dataset import Series, _require_valid
from .errors import _DOUBLE_MAX, OutOfRange
from .regression import LinearFit, _line
from .stepmodel import StepModelParams, model_eval

WIDTH = 720
HEIGHT = 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 40, 64

X_LABEL = "Time in Sec"
Y_LABEL = "Temperature in degree"

POINT_COLOR = "#1f77b4"
LINE_COLOR = "#d62728"
CURVE_COLOR = "#2ca02c"
CURVE_SAMPLES = 200


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _no_ticks(lo: float, hi: float) -> OutOfRange:
    return OutOfRange(f"a plot axis from {lo!r} to {hi!r} has no tick step in double precision")


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi] at a 1/2/2.5/5 * 10^k step;
    OutOfRange where the span, or its step, is zero or not finite as a double."""
    span = hi - lo
    raw = span / target
    if not (0 < raw <= _DOUBLE_MAX) or not (mag := 10.0 ** math.floor(math.log10(raw))):
        raise _no_ticks(lo, hi)
    step = 10 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (mult * mag) <= target:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * span:
        ticks.append(round(v, 12))
        if v + step == v:  # the step is lost in v's rounding: the next tick would be this one
            raise _no_ticks(lo, hi)
        v += step
    return ticks


def _labels(ticks: list[float]) -> list[str]:
    """The ticks written with the fewest significant digits, at least 6 (as
    ``:g`` writes them), that tell adjacent ticks apart; 17 tell any two apart."""
    for digits in range(6, 18):
        labels = [f"{v:.{digits}g}" for v in ticks]
        if all(map(str.__ne__, labels, labels[1:])):
            break
    return labels


def render_plot(
    series: Series,
    fit: LinearFit,
    nl_params: StepModelParams | None = None,
) -> str:
    """Render observed points, the fitted line, and optionally the step-response curve.

    The series is validated first.  The fitted line is the single <line>
    element; the curve, when present, is one <path> beyond the axes path.
    """
    _require_valid(series)
    xs, ys = series.times, series.temps

    x_lo, x_hi = lx0, lx1 = min(xs), max(xs)
    ly0, ly1 = _line(fit, (lx0, lx1))
    y_all = [*ys, ly0, ly1]
    if nl_params is not None:
        # the step response is monotone in t, so its extremes on the plotted
        # range sit at the endpoints (t_final_c may lie far outside the plot)
        y_all += [model_eval(nl_params, lx0), model_eval(nl_params, lx1)]
    y_lo, y_hi = min(y_all), max(y_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_pad = 0.04 * (x_hi - x_lo)
    y_pad = 0.08 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]

    # Axes and ticks as a single path so the fit line stays the only <line>.
    x0, y0 = MARGIN_L, MARGIN_T + plot_h
    x1, y1 = MARGIN_L + plot_w, MARGIN_T
    axis_d = [f"M {_fmt(x0)} {_fmt(y1)} L {_fmt(x0)} {_fmt(y0)} L {_fmt(x1)} {_fmt(y0)}"]
    labels = []
    ticks = _ticks(x_lo, x_hi)
    for tx, label in zip(ticks, _labels(ticks)):
        px = sx(tx)
        axis_d.append(f"M {_fmt(px)} {_fmt(y0)} L {_fmt(px)} {_fmt(y0 + 5)}")
        labels.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y0 + 20)}" text-anchor="middle">{label}</text>'
        )
    ticks = _ticks(y_lo, y_hi)
    for ty, label in zip(ticks, _labels(ticks)):
        py = sy(ty)
        axis_d.append(f"M {_fmt(x0)} {_fmt(py)} L {_fmt(x0 - 5)} {_fmt(py)}")
        labels.append(
            f'<text x="{_fmt(x0 - 9)}" y="{_fmt(py + 4)}" text-anchor="end">{label}</text>'
        )
    parts.append(f'<path d="{" ".join(axis_d)}" stroke="#000000" fill="none"/>')
    parts.extend(labels)

    cx, cy = MARGIN_L + plot_w / 2, HEIGHT - 18
    parts.append(f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" text-anchor="middle">{X_LABEL}</text>')
    parts.append(
        f'<text x="18" y="{_fmt(MARGIN_T + plot_h / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_fmt(MARGIN_T + plot_h / 2)})">{Y_LABEL}</text>'
    )
    if series.label:
        parts.append(
            f'<text x="{_fmt(cx)}" y="24" text-anchor="middle" font-size="14">'
            f"{escape(series.label, quote=False)}</text>"
        )

    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3.5" fill="{POINT_COLOR}"/>'
        )

    parts.append(
        f'<line x1="{_fmt(sx(lx0))}" y1="{_fmt(sy(ly0))}" '
        f'x2="{_fmt(sx(lx1))}" y2="{_fmt(sy(ly1))}" '
        f'stroke="{LINE_COLOR}" stroke-width="1.5"/>'
    )

    if nl_params is not None:
        d = []
        for i in range(CURVE_SAMPLES + 1):
            x = lx0 + (lx1 - lx0) * i / CURVE_SAMPLES
            cmd = "M" if i == 0 else "L"
            d.append(f"{cmd} {_fmt(sx(x))} {_fmt(sy(model_eval(nl_params, x)))}")
        parts.append(
            f'<path d="{" ".join(d)}" stroke="{CURVE_COLOR}" stroke-width="1.5" fill="none"/>'
        )

    legend = [("observed", POINT_COLOR), ("least-squares line", LINE_COLOR)]
    if nl_params is not None:
        legend.append(("step-response fit", CURVE_COLOR))
    ly = MARGIN_T + 10
    for name, color_ in legend:
        lx = MARGIN_L + plot_w - 170
        parts.append(f'<rect x="{_fmt(lx)}" y="{_fmt(ly - 9)}" width="18" height="9" fill="{color_}"/>')
        parts.append(f'<text x="{_fmt(lx + 24)}" y="{_fmt(ly)}">{name}</text>')
        ly += 18

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
