import json
import math
import xml.etree.ElementTree as ET

import pytest

from thermofit import (
    Axis,
    StepModelParams,
    build_report,
    predict,
    render_json,
    render_text,
    residuals,
)
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
