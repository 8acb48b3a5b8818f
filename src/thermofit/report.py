"""Fit reports: building, JSON rendering, and text rendering."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dataset import Series
from .regression import (
    Axis,
    FitClass,
    LinearFit,
    classify_fit,
    ols_fit,
    predict,
    residuals,
    wls_fit,
)
from .stepmodel import NlFit, StepModelParams


@dataclass(frozen=True)
class FitReport:
    """Everything a fit run produced, ready for rendering.

    ``residual_table`` rows are (x, observed, predicted, residual), where
    predicted is the line's value at x and residual is the deviation the fit
    minimized (``regression.residuals``): observed - predicted for a y-on-x
    fit, the horizontal x - x(observed) for an x-on-y fit.  For an unweighted
    fit the squared residuals therefore sum to ``linear.sse``.
    """

    series_label: str
    linear: LinearFit
    fit_class: FitClass
    residual_table: tuple[tuple[float, float, float, float], ...]
    nonlinear: NlFit | None = None


def build_report(
    series: Series,
    axis: Axis = Axis.Y_ON_X,
    weights: list[float] | None = None,
    nonlinear: bool = False,
    nl_init: StepModelParams | None = None,
    nl_max_iter: int = 100,
) -> FitReport:
    """Fit a series and assemble the report.

    With ``weights`` the linear fit is weighted (y-on-x only); with
    ``nonlinear`` a Gauss-Newton step-response fit is attached, which
    imports numpy on first use.
    """
    points = series.points()
    if weights is not None:
        fit = wls_fit(points, weights)
    else:
        fit = ols_fit(points, axis)
    rows = [
        (x, y, predict(fit, x), d) for (x, y), d in zip(points, residuals(fit, points))
    ]
    nl = None
    if nonlinear:
        from .stepfit import gauss_newton  # deferred: stepfit imports numpy

        nl = gauss_newton(series, nl_init, max_iter=nl_max_iter)
    return FitReport(
        series_label=series.label,
        linear=fit,
        fit_class=classify_fit(fit.r),
        residual_table=tuple(rows),
        nonlinear=nl,
    )


def render_json(report: FitReport) -> str:
    """Machine-readable report; numbers keep full round-trip precision."""
    obj: dict = {
        "label": report.series_label,
        "n": report.linear.n,
        "axis": report.linear.axis.value,
        "slope": report.linear.slope,
        "intercept": report.linear.intercept,
        "r": report.linear.r,
        "sse": report.linear.sse,
        "fit_class": report.fit_class.name,
        "residuals": [
            {"x": x, "observed": y, "predicted": p, "residual": d}
            for x, y, p, d in report.residual_table
        ],
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
    return json.dumps(obj, indent=2) + "\n"


_CLASS_COLOR = {FitClass.GOOD: "32", FitClass.MODERATE: "33", FitClass.POOR: "31"}


def render_text(report: FitReport, color: bool = False) -> str:
    """Human-readable report, values to 4 decimal places."""

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
    for x, y, p, d in report.residual_table:
        lines.append(f"{x:>10.4f}  {y:>10.4f}  {p:>10.4f}  {d:>10.4f}")
    if report.nonlinear is not None:
        nl = report.nonlinear
        status = "converged" if nl.converged else "NOT converged"
        lines += [
            "",
            paint("step-response fit  T(t) = Tinf + (T0 - Tinf)*exp(-t/tau)", "1"),
            f"T0          {nl.params.t_ambient_c:.4f}",
            f"Tinf        {nl.params.t_final_c:.4f}",
            f"tau         {nl.params.tau_s:.4f}",
            f"sse         {nl.sse:.4f}",
            f"iterations  {nl.iterations} ({status})",
        ]
    return "\n".join(lines) + "\n"
