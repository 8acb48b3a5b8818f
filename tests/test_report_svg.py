import hashlib
import json
import math
import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, strategies as st

from thermofit import (
    Axis,
    Series,
    StepModelParams,
    build_report,
    builtin_series,
    model_eval,
    predict,
    render_json,
    render_text,
    residuals,
)
from thermofit.errors import _ARRAY_MIN, OutOfRange
from thermofit.svgplot import render_plot


def _tag_counts(svg_text):
    root = ET.fromstring(svg_text)
    counts = {}
    for el in root.iter():
        tag = el.tag.rsplit("}", 1)[-1]
        counts[tag] = counts.get(tag, 0) + 1
    return counts


def test_report_row_identity(full_series):
    report = build_report(full_series)
    assert len(report.residual_table) == len(full_series.samples)
    for x, y, p, d in report.residual_table:
        assert p - y + d == pytest.approx(0.0, abs=1e-12)


def test_render_json_fields_and_roundtrip(full_series):
    report = build_report(full_series, nonlinear=True, nl_init=StepModelParams(20.2, 57, 20))
    obj = json.loads(render_json(report))
    for key in ("label", "n", "axis", "slope", "intercept", "r", "sse", "fit_class", "residuals"):
        assert key in obj
    assert obj["slope"] == report.linear.slope  # repr round-trips exactly
    assert obj["r"] == report.linear.r
    assert len(obj["residuals"]) == 13
    nl = obj["nonlinear"]
    assert set(nl) == {"t0", "tinf", "tau", "sse", "iterations", "converged"}
    assert nl["converged"] is True
    assert nl["sse"] == report.nonlinear.sse


def test_render_json_collinear_is_perfect():
    from thermofit import Sample, Series

    series = Series("line", tuple(Sample(float(t), 1.0 + 2.0 * t) for t in range(5)))
    obj = json.loads(render_json(build_report(series)))
    assert obj["r"] == 1
    assert obj["sse"] == pytest.approx(0.0, abs=1e-20)
    assert obj["fit_class"] == "GOOD"


def test_render_json_omits_nonlinear_when_absent(idle_series):
    obj = json.loads(render_json(build_report(idle_series)))
    assert "nonlinear" not in obj


def test_render_text_plain_and_colored(full_series):
    report = build_report(full_series)
    plain = render_text(report, color=False)
    assert "\x1b[" not in plain
    assert "slope" in plain and "GOOD" in plain
    assert f"{report.linear.slope:.4f}" in plain
    colored = render_text(report, color=True)
    assert "\x1b[32m" in colored  # GOOD painted green


def test_render_text_includes_nonlinear_block(full_series):
    report = build_report(full_series, nonlinear=True, nl_init=StepModelParams(20.2, 57, 20))
    text = render_text(report)
    assert "step-response fit" in text
    assert "tau" in text


def test_report_respects_axis(idle_series):
    rep = build_report(idle_series, axis=Axis.X_ON_Y)
    assert rep.linear.axis is Axis.X_ON_Y


def test_a_report_refuses_weights_for_an_x_on_y_fit(idle_series):
    # only the y-on-x fit is weighted, as the CLI's E_USAGE line for the same request says
    with pytest.raises(OutOfRange, match="^weights apply to the y-on-x fit only$"):
        build_report(idle_series, Axis.X_ON_Y, [1.0] * len(idle_series.times))


def test_svg_structure(full_series):
    report = build_report(full_series)
    svg = render_plot(full_series, report.linear)
    counts = _tag_counts(svg)
    assert counts["circle"] == 13
    assert counts["line"] == 1
    assert counts["svg"] == 1
    base_paths = counts.get("path", 0)

    nl_report = build_report(full_series, nonlinear=True, nl_init=StepModelParams(20.2, 57, 20))
    svg_nl = render_plot(full_series, nl_report.linear, nl_report.nonlinear.params)
    counts_nl = _tag_counts(svg_nl)
    assert counts_nl["path"] == base_paths + 1
    assert counts_nl["circle"] == 13
    assert counts_nl["line"] == 1


def test_svg_axis_labels_present(full_series):
    report = build_report(full_series)
    svg = render_plot(full_series, report.linear)
    assert "Time in Sec" in svg
    assert "Temperature in degree" in svg
    assert "legend" not in svg.lower() or True  # legend entries are plain text
    assert "observed" in svg and "least-squares line" in svg


def test_svg_deterministic(full_series):
    report = build_report(full_series)
    assert render_plot(full_series, report.linear) == render_plot(full_series, report.linear)


def test_svg_well_formed_for_odd_labels():
    from thermofit import Sample, Series

    series = Series("a<b>&\"c\"", (Sample(0.0, 1.0), Sample(1.0, 2.0), Sample(2.0, 2.5)))
    report = build_report(series)
    svg = render_plot(series, report.linear)
    ET.fromstring(svg)  # must parse



def test_svg_tick_labels_tell_adjacent_ticks_apart():
    # two hours each minute at Unix-epoch times: 6 digits write the first
    # three x ticks all as 1.7e+09
    from thermofit import Series

    series = Series("epoch", [(1.7e9 + 60.0 * i, 20.0 + 0.1 * i) for i in range(120)])
    root = ET.fromstring(render_plot(series, build_report(series).linear))
    texts = [el for el in root.iter() if el.tag.endswith("text")]
    x_labels = [el.text for el in texts if el.get("text-anchor") == "middle" and el.text[0].isdigit()]
    assert x_labels == ["1.7e+09", "1.700002e+09", "1.700004e+09", "1.700006e+09"]
    y_labels = [el.text for el in texts if el.get("text-anchor") == "end"]
    assert y_labels == ["20", "22.5", "25", "27.5", "30", "32.5"]


def _svg_case(name):
    """(series, step-model parameters or None) of a named plot."""
    if name == "full":
        return builtin_series("full"), None
    if name == "odd-label":
        return Series("a<b>&\"c\"", [(0.0, 1.0), (1.0, 2.0), (2.0, 2.5)]), None
    if name == "epoch":
        return Series("epoch", [(1.7e9 + 60.0 * i, 20.0 + 0.1 * i) for i in range(120)]), None
    # a 1 Hz warm-up of 5000 samples, with a curve given rather than fitted, so
    # that the bytes do not hang on the array kernel's CPU-dependent last digits
    rng = random.Random(19)
    temps = [60.0 - 40.0 * math.exp(-t / 1500.0) + rng.uniform(-0.3, 0.3) for t in range(5000)]
    return Series("step", zip(map(float, range(5000)), temps)), StepModelParams(20.0, 60.0, 1500.0)


# sha256 of each plot's SVG text in UTF-8: the same input gives the same bytes,
# and a refactor of the renderer keeps them.  The idle plot and the full
# curve plot are rows of tests/cli_contract.txt.
_SVG_SHA256 = {
    "full": "9b49469c3688a333d86c079670d2305a24b7adc57b177d499ececd5086a55b6f",
    "odd-label": "6a17334a37fc9356e7f3d58828cf0eba25817d5b54b246e26617cffa4c7d8374",
    "epoch": "269e932f28fca0a9f052e0637760bdb1e06a7a9c6c74bccaf54720686791fb62",
    "step-5000-curve": "e30e13a15ee894b59d3e94a9e5ce2f3b286f8022129723084b695b77d6202251",
}


@pytest.mark.parametrize("name", list(_SVG_SHA256))
def test_svg_bytes_are_pinned(name):
    series, nl_params = _svg_case(name)
    svg = render_plot(series, build_report(series).linear, nl_params)
    assert hashlib.sha256(svg.encode()).hexdigest() == _SVG_SHA256[name]


@given(st.floats() | st.integers(-(10**308), 10**308))
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(5e-324)
@example(-2.5e-310)
@example(0.005)  # halfway cases round as the double they are
@example(-0.125)
def test_percent_2f_writes_what_format_2f_writes(v):
    # the templates write coordinates with %.2f; the pinned bytes are f"{v:.2f}"'s
    assert "%.2f" % v == f"{v:.2f}"


@pytest.mark.parametrize("axis", list(Axis))
def test_report_residuals_follow_the_fit_axis(idle_series, axis):
    # x-on-y residuals are horizontal, so their squares sum to the fit's own SSE
    # (296.33 on idle), not to the vertical 180.40
    report = build_report(idle_series, axis)
    fit, points = report.linear, idle_series.points()
    _, _, predicted, resid = zip(*report.residual_table)
    assert list(predicted) == [predict(fit, x) for x, _ in points]
    assert list(resid) == residuals(fit, points)
    assert math.fsum(d * d for d in resid) == pytest.approx(fit.sse, rel=1e-12)


def _table_hexes(report):
    fit = report.linear
    return [float.hex(v) for v in (fit.slope, fit.intercept, fit.r, fit.sse)], [
        list(map(float.hex, row)) for row in report.residual_table
    ]


_TABLE_CASES = {"y-on-x": (Axis.Y_ON_X, False), "x-on-y": (Axis.X_ON_Y, False), "weighted": (Axis.Y_ON_X, True)}


@pytest.mark.parametrize("case", list(_TABLE_CASES))
def test_the_report_table_on_arrays_is_the_table_on_lists(case):
    # from _ARRAY_MIN samples a report with the curve fit fits its line on numpy
    # arrays, and one without it on lists; the residual column is the fit's own
    axis, weighted = _TABLE_CASES[case]
    rng, p = random.Random(20), StepModelParams(20.0, 60.0, _ARRAY_MIN / 4)
    series = Series("noisy", [(float(t), model_eval(p, t) + rng.gauss(0.0, 0.3)) for t in range(_ARRAY_MIN)])
    ws = [1 + (i % 7) / 8 for i in range(_ARRAY_MIN)] if weighted else None
    on_arrays = build_report(series, axis, ws, nonlinear=True)
    assert _table_hexes(on_arrays) == _table_hexes(build_report(series, axis, ws))
    if not weighted:
        assert math.fsum(d**2 for *_, d in on_arrays.residual_table) == on_arrays.linear.sse
