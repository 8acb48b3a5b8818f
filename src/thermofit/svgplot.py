"""Deterministic standalone SVG scatter/fit plots.

No graphics dependency: the chart is assembled as text.  Same input, same
bytes out (coordinates are formatted to fixed precision and nothing
time- or id-based is emitted), which makes the output diffable and easy to
assert on in tests.
"""

from __future__ import annotations

import math
from html import escape
from typing import TYPE_CHECKING

from .dataset import Series, _require_valid
from .errors import _DOUBLE_MAX, OutOfRange
from .regression import LinearFit, _line

if TYPE_CHECKING:  # the step model is loaded only to draw a curve
    from .stepmodel import StepModelParams

WIDTH = 720
HEIGHT = 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 40, 64

X_LABEL = "Time in Sec"
Y_LABEL = "Temperature in degree"

POINT_COLOR = "#1f77b4"
LINE_COLOR = "#d62728"
CURVE_COLOR = "#2ca02c"
CURVE_SAMPLES = 200

# One %-template per kind of SVG element.  Coordinates go in as %.2f, which
# writes what f"{v:.2f}" writes; labels and tick text go in as %s arguments.
_TEXT = '<text x="%.2f" y="%.2f"%s>%s</text>'
_MIDDLE, _END = ' text-anchor="middle"', ' text-anchor="end"'
_TITLE = '<text x="%.2f" y="24" text-anchor="middle" font-size="14">%s</text>'
_Y_TITLE = '<text x="18" y="%.2f" text-anchor="middle" transform="rotate(-90 18 %.2f)">%s</text>'
_AXES = '<path d="M %.2f %.2f L %.2f %.2f L %.2f %.2f%s" stroke="#000000" fill="none"/>'
_TICK = " M %.2f %.2f L %.2f %.2f"
_CIRCLE = f'<circle cx="%.2f" cy="%.2f" r="3.5" fill="{POINT_COLOR}"/>'
_LINE = f'<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="{LINE_COLOR}" stroke-width="1.5"/>'
_CURVE = f'<path d="M %s" stroke="{CURVE_COLOR}" stroke-width="1.5" fill="none"/>'
_VERTEX = "%.2f %.2f"
_KEY = '<rect x="%.2f" y="%.2f" width="18" height="9" fill="%s"/>'
_LEGEND = (("observed", POINT_COLOR), ("least-squares line", LINE_COLOR), ("step-response fit", CURVE_COLOR))


def _no_ticks(lo: float, hi: float) -> OutOfRange:
    return OutOfRange(f"a plot axis from {lo!r} to {hi!r} has no tick step in double precision")


def _ticks(lo: float, hi: float) -> list[float]:
    """About 6 round tick positions covering [lo, hi] at a 1/2/2.5/5 * 10^k step;
    OutOfRange where the span, or its step, is zero or not finite as a double."""
    span = hi - lo
    raw = span / 6
    if not (0 < raw <= _DOUBLE_MAX) or not (mag := 10.0 ** math.floor(math.log10(raw))):
        raise _no_ticks(lo, hi)
    step = 10 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (mult * mag) <= 6:
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


def _padded(lo: float, hi: float, share: float) -> tuple[float, float]:
    """[lo, hi] widened by ``share`` of its span at each end; a zero span counts as 1."""
    if hi == lo:
        hi = lo + 1.0
    pad = share * (hi - lo)
    return lo - pad, hi + pad


def _scale(start: float, end: float, origin: float, length: float):
    """The map of [start, end] onto [origin, origin + length], applied to a column.

    ``start`` may be the larger end: v - start and end - start are then the exact
    negatives of start - v and start - end, so the map of [hi, lo] computes
    origin + (hi - v) / (hi - lo) * length bit for bit."""
    span = end - start
    return lambda column: [origin + (v - start) / span * length for v in column]


def render_plot(
    series: Series,
    fit: LinearFit,
    nl_params: StepModelParams | None = None,
) -> str:
    """Render observed points, the fitted line, and optionally the step-response curve.

    The series is validated first, and its values are taken as floats.  The
    fitted line is the single <line> element; the curve, when present, is one
    <path> beyond the axes path.
    """
    _require_valid(series)
    xs, ys = list(map(float, series.times)), list(map(float, series.temps))
    ends = (min(xs), max(xs))
    line = _line(fit, ends)
    y_all = [*ys, *line]
    if nl_params is not None:
        from .stepmodel import model_eval

        # the step response is monotone in t, so its extremes on the plotted
        # range sit at the endpoints (t_final_c may lie far outside the plot)
        y_all += [model_eval(nl_params, t) for t in ends]
    x_lo, x_hi = _padded(*ends, 0.04)
    y_lo, y_hi = _padded(min(y_all), max(y_all), 0.08)
    x_ticks, y_ticks = _ticks(x_lo, x_hi), _ticks(y_lo, y_hi)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    left, right, top, bottom = MARGIN_L, MARGIN_L + plot_w, MARGIN_T, MARGIN_T + plot_h
    sx = _scale(x_lo, x_hi, left, plot_w)
    sy = _scale(y_hi, y_lo, top, plot_h)  # SVG's y grows downward
    px, py = sx(x_ticks), sy(y_ticks)
    # Axes and ticks as a single path so the fit line stays the only <line>.
    ticks = [_TICK % (p, bottom, p, bottom + 5) for p in px]
    ticks += [_TICK % (left, p, left - 5, p) for p in py]
    mid_x, mid_y = left + plot_w / 2, top + plot_h / 2
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        _AXES % (left, top, left, bottom, right, bottom, "".join(ticks)),
        *[_TEXT % (p, bottom + 20, _MIDDLE, s) for p, s in zip(px, _labels(x_ticks))],
        *[_TEXT % (left - 9, p + 4, _END, s) for p, s in zip(py, _labels(y_ticks))],
        _TEXT % (mid_x, HEIGHT - 18, _MIDDLE, X_LABEL),
        _Y_TITLE % (mid_y, mid_y, Y_LABEL),
    ]
    if series.label:
        parts.append(_TITLE % (mid_x, escape(series.label, quote=False)))
    parts += map(_CIRCLE.__mod__, zip(sx(xs), sy(ys)))
    (x1, x2), (y1, y2) = sx(ends), sy(line)
    parts.append(_LINE % (x1, y1, x2, y2))

    legend = _LEGEND[:2]
    if nl_params is not None:
        lo, hi = ends
        ts = [lo + (hi - lo) * i / CURVE_SAMPLES for i in range(CURVE_SAMPLES + 1)]
        vertices = zip(sx(ts), sy([model_eval(nl_params, t) for t in ts]))
        parts.append(_CURVE % " L ".join(map(_VERTEX.__mod__, vertices)))
        legend = _LEGEND
    key_x = right - 170
    for i, (name, color) in enumerate(legend):
        y = top + 10 + 18 * i
        parts += [_KEY % (key_x, y - 9, color), _TEXT % (key_x + 24, y, "", name)]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
