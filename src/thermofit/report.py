"""Fit reports: building, JSON rendering, and text rendering."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .dataset import Series, _require_valid
from .errors import _ARRAY_MIN, _BLOCK_ROWS, _GN_MAX_ITER, OutOfRange
from .regression import Axis, FitClass, LinearFit, _fit, _line, classify_fit

if TYPE_CHECKING:  # the step model is loaded only by a curve fit
    from .stepmodel import NlFit, StepModelParams


@dataclass(frozen=True, init=False)
class FitReport:
    """Everything a fit run produced, ready for rendering.

    ``residual_table`` rows are (x, observed, predicted, residual), where
    predicted is the line's value at x and residual is the deviation the fit
    minimized (``regression.residuals``): observed - predicted for a y-on-x
    fit, the horizontal x - x(observed) for an x-on-y fit.  For an unweighted
    fit ``math.fsum(d ** 2 for d in residuals) == linear.sse`` exactly: the fit
    squares with ``**`` (the C library's pow), which can differ from ``d * d``
    in the last bit.

    The report stores the table as its four columns; ``residual_table`` is a
    view that rebuilds the rows from them.  A table that is not rows of four
    values is refused: TypeError for a row that is not iterable, ValueError
    for one that is not four values.
    """

    series_label: str
    linear: LinearFit
    fit_class: FitClass
    _columns: tuple
    nonlinear: NlFit | None = None

    def __init__(
        self,
        series_label: str,
        linear: LinearFit,
        fit_class: FitClass,
        residual_table=None,
        nonlinear: NlFit | None = None,
        *,
        _columns: tuple | None = None,
    ):
        # dataclasses.replace passes _columns, and residual_table only when it changes
        if residual_table is not None:
            _columns = _columns_of(residual_table)
        if _columns is None:
            raise TypeError("FitReport() needs a residual_table")
        fields = ("series_label", "linear", "fit_class", "_columns", "nonlinear")
        for name, value in zip(fields, (series_label, linear, fit_class, _columns, nonlinear)):
            object.__setattr__(self, name, value)

    @property
    def residual_table(self) -> tuple[tuple[float, float, float, float], ...]:
        """The rows (x, observed, predicted, residual), a view built from the columns."""
        return tuple(zip(*self._columns))


def _columns_of(table) -> tuple:
    """The four columns of a table of rows of four values; TypeError for a row
    that is not iterable, ValueError for one that is not four values."""
    columns = tuple(zip(*table, strict=True)) or ((),) * 4
    if len(columns) != 4:
        raise ValueError(f"residual_table rows must be four values, not {len(columns)}")
    return columns


def build_report(
    series: Series,
    axis: Axis = Axis.Y_ON_X,
    weights: list[float] | None = None,
    nonlinear: bool = False,
    nl_init: StepModelParams | None = None,
    nl_max_iter: int = _GN_MAX_ITER,
) -> FitReport:
    """Validate a series, fit it and assemble the report of its values as floats.

    With ``weights`` the linear fit is weighted, which only a y-on-x fit
    may be (OutOfRange for an x-on-y one); with ``nonlinear`` a Gauss-Newton
    step-response fit is attached, which imports numpy for a series of at
    least ``_ARRAY_MIN`` samples.
    """
    _require_valid(series)
    if weights is not None and axis is not Axis.Y_ON_X:
        raise OutOfRange("weights apply to the y-on-x fit only")
    xs, ys = tuple(map(float, series.times)), tuple(map(float, series.temps))
    # numpy is loaded only where the curve fit loads it anyway
    arrays = nonlinear and len(xs) >= _ARRAY_MIN
    # the residual column is the deviations whose squares the fit summed
    fit, deviations = _fit(xs, ys, weights, axis, arrays)
    columns = (xs, ys, tuple(_line(fit, xs)), tuple(deviations))
    nl = None
    if nonlinear:
        from .stepmodel import gauss_newton  # deferred: only a curve fit needs the step model

        nl = gauss_newton(series, nl_init, max_iter=nl_max_iter)
    return FitReport(series.label, fit, classify_fit(fit.r), nonlinear=nl, _columns=columns)


def _blocks(columns):
    """The values of the four columns, row by row, in blocks of at most
    ``_BLOCK_ROWS`` rows, so that what one block holds, not what the whole
    table holds, bounds the writers' working memory."""
    x, y, p, d = columns
    for i in range(0, len(x), _BLOCK_ROWS):
        j = i + _BLOCK_ROWS
        values = [None] * (4 * len(x[i:j]))
        values[0::4], values[1::4], values[2::4], values[3::4] = x[i:j], y[i:j], p[i:j], d[i:j]
        yield values


# What json.dumps(..., indent=2) writes inside the report before each value of
# a residual row: before x the end of the row before, or for the first row
# _JSON_FIRST
_JSON_BEFORE = (
    '\n    },\n    {\n      "x": ',
    ',\n      "observed": ',
    ',\n      "predicted": ',
    ',\n      "residual": ',
)
_JSON_FIRST = '\n    {\n      "x": '
_JSON_SLOT = '\n  "residuals": []'
# orjson writes a value below 1e-4 in fixed notation, where json writes an exponent
_FIXED = ("0.0000", "-0.0000")


def _json_values(values: list) -> list[str]:
    """Each of ``values`` as json writes it, by json's C encoder in one call."""
    import json

    text = json.dumps(values)[1:-1]  # no indent: json's C encoder
    if '"' in text or "[" in text or "{" in text:
        raise TypeError("residual_table entries must be numbers")
    return text.split(", ")


def _orjson_values(values: list) -> list[str]:
    """Each of ``values`` as json writes it, from orjson's shortest digits.

    orjson writes the same digits as ``float.__repr__`` 13 times faster, but
    ``1e16`` and ``1e-7`` where json writes ``1e+16`` and ``1e-07``, and
    ``0.00001`` (fixed) below 1e-4; those texts are written again by
    ``float.__repr__``.  A block that holds anything but floats and ints of at
    most 64 bits, or a NaN or an infinity (orjson's ``null``), goes whole to
    ``_json_values``, which says how json writes it or refuses it.
    """
    import orjson  # deferred: only a table of at least one block is written by it

    if not {*map(type, values)} <= {float, int}:  # a bool, a float subclass, an Enum, a string
        return _json_values(values)
    try:
        text = orjson.dumps(values)[1:-1].decode()
    except TypeError:  # an int beyond 64 bits
        return _json_values(values)
    if "n" in text:  # null: a NaN or an infinity
        return _json_values(values)
    texts = text.split(",")
    # a token that starts with "0.0000", not one that holds it, as 20.00003 does
    fixed = texts[0].startswith(_FIXED) or ",0.0000" in text or ",-0.0000" in text
    if "e" in text or fixed:
        return [repr(v) if "e" in t or t.startswith(_FIXED) else t for t, v in zip(texts, values)]
    return texts


def render_json(report: FitReport) -> str:
    """Machine-readable report; numbers keep full round-trip precision.

    The text equals ``json.dumps(obj, indent=2) + "\n"`` for the report's
    dict, but the residual values are written by json's C encoder a block
    of rows at a time and joined with the text json puts between them.  In a
    table of at least ``_BLOCK_ROWS`` rows orjson writes the numbers:
    ``float.__repr__`` writes again those it puts in another notation than
    json's, and json writes a block that holds a NaN, an infinity or
    anything but floats and ints, so the bytes are json's either way.  An
    entry of ``residual_table`` that json would write as a string, list or
    object raises TypeError.
    """
    return "".join(_json_blocks(report))


def _json_blocks(report: FitReport):
    """``render_json``'s text in pieces: the head, the rows of each block, the tail."""
    import json  # deferred, as in _json_values: only the JSON writer needs it

    obj: dict = {
        "label": report.series_label,
        "n": report.linear.n,
        "axis": report.linear.axis.value,
        "slope": report.linear.slope,
        "intercept": report.linear.intercept,
        "r": report.linear.r,
        "sse": report.linear.sse,
        "fit_class": report.fit_class.name,
        "residuals": [],
    }
    if report.nonlinear is not None:
        nl = report.nonlinear
        obj["nonlinear"] = {
            "t0": nl.params.t_ambient_c,
            "tinf": nl.params.t_final_c,
            "tau": nl.params.tau_s,
            "sse": nl.sse,
            "iterations": nl.iterations,
            "converged": nl.converged,
        }
    head = json.dumps(obj, indent=2)
    if not report._columns[0]:
        yield head + "\n"
        return
    # json escapes a newline inside a string, so the first match is the top-level key
    before, _, after = head.partition(_JSON_SLOT)
    yield before + '\n  "residuals": ['
    # json's encoder writes the digits at 0.45 us a value; from one block on, orjson writes them
    encode = _orjson_values if len(report._columns[0]) >= _BLOCK_ROWS else _json_values
    first = _JSON_FIRST  # the text before a block's first value
    for values in _blocks(report._columns):
        parts = [None] * (2 * len(values))
        parts[0::2] = _JSON_BEFORE * (len(values) // 4)
        parts[1::2] = encode(values)
        parts[0], first = first, _JSON_BEFORE[0]
        yield "".join(parts)
    yield "\n    }\n  ]" + after + "\n"


_TEXT_ROW = "%10.4f  %10.4f  %10.4f  %10.4f\n"
_CLASS_COLOR = {FitClass.GOOD: "32", FitClass.MODERATE: "33", FitClass.POOR: "31"}


def render_text(report: FitReport, color: bool = False) -> str:
    """Human-readable report, values to 4 decimal places."""
    return "".join(_text_blocks(report, color))


def _text_blocks(report: FitReport, color: bool = False):
    """``render_text``'s text in pieces: the head, the rows of each block, the tail."""

    def paint(text: str, sgr: str) -> str:
        return f"\x1b[{sgr}m{text}\x1b[0m" if color else text

    fit = report.linear
    lines = [
        paint(f"series      {report.series_label or '(unlabeled)'}", "1"),
        f"n           {fit.n}",
        f"axis        {fit.axis.value}",
        f"slope       {fit.slope:.4f}",
        f"intercept   {fit.intercept:.4f}",
        f"r           {fit.r:.4f}  " + paint(report.fit_class.name, _CLASS_COLOR[report.fit_class]),
        f"sse         {fit.sse:.4f}",
        "",
        f"{'x':>10}  {'observed':>10}  {'predicted':>10}  {'residual':>10}",
    ]
    yield "\n".join(lines) + "\n"
    for values in _blocks(report._columns):
        yield (_TEXT_ROW * (len(values) // 4)) % tuple(values)
    if report.nonlinear is not None:
        nl = report.nonlinear
        status = "converged" if nl.converged else "NOT converged"
        lines = [
            "",
            paint("step-response fit  T(t) = Tinf + (T0 - Tinf)*exp(-t/tau)", "1"),
            f"T0          {nl.params.t_ambient_c:.4f}",
            f"Tinf        {nl.params.t_final_c:.4f}",
            f"tau         {nl.params.tau_s:.4f}",
            f"sse         {nl.sse:.4f}",
            f"iterations  {nl.iterations} ({status})",
        ]
        yield "\n".join(lines) + "\n"
