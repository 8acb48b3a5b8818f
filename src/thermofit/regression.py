"""Closed-form linear least squares, weighted variants, and fit diagnostics.

A best-fit line minimizes the sum of squared deviations from the data.  For
the regression of y on x the deviations are vertical and the minimizer is

    m = (n*sum(xy) - sum(x)*sum(y)) / (n*sum(x^2) - sum(x)^2)
    b = (sum(y) - m*sum(x)) / n

computed here in the numerically equivalent centered form m = Sxy/Sxx,
b = ybar - m*xbar.  The regression of x on y minimizes horizontal deviations
instead; the two lines coincide only when the data are perfectly collinear.
Weighted fits minimize sum(w_i * d_i^2) via the weighted normal equations.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from itertools import chain

from .errors import (
    _DOUBLE_MAX,
    DegenerateVariance,
    EmptyInput,
    InsufficientData,
    LengthMismatch,
    NonPositiveWeight,
    OutOfRange,
    _require_finite,
    _shown,
)

Point = tuple[float, float]


class Axis(enum.Enum):
    """Which deviations the fit minimizes."""

    Y_ON_X = "y-on-x"
    X_ON_Y = "x-on-y"


class FitClass(enum.IntEnum):
    """Qualitative fit quality, ordered GOOD > MODERATE > POOR."""

    POOR = 0
    MODERATE = 1
    GOOD = 2


@dataclass(frozen=True)
class SummaryStats:
    """Running sums of a point set: n, sum x, sum y, sum xy, sum x^2, sum y^2."""

    n: int
    sum_x: float
    sum_y: float
    sum_xy: float
    sum_x2: float
    sum_y2: float


@dataclass(frozen=True)
class LinearFit:
    """A fitted line y = slope*x + intercept with diagnostics.

    ``sse`` is the objective the fit minimized: vertical squared deviations
    for Y_ON_X, horizontal ones for X_ON_Y.  ``r`` is the correlation
    coefficient of the data (weighted when the fit is weighted).
    """

    slope: float
    intercept: float
    axis: Axis
    r: float
    sse: float
    n: int


def _columns(points) -> tuple[list, list]:
    """The x and the y column of ``points``, read in one pass so an iterator works too."""
    xs, ys = [], []
    for x, y in points:
        xs.append(x)
        ys.append(y)
    return xs, ys


def _floats(xs, ys) -> tuple[list[float], list[float]]:
    """Both columns as floats; OutOfRange at the first coordinate that is not finite."""
    _require_finite(chain(xs, ys), "non-finite coordinate")
    return list(map(float, xs)), list(map(float, ys))


def _fsum(terms) -> float:
    """Exact sum; raises OutOfRange unless it is finite.

    Covers a term that overflowed to inf or is NaN, and math.fsum's own
    OverflowError (intermediate overflow) and ValueError (inf + -inf).
    """
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):
        total = math.inf
    return _require_finite((total,), "a sum is outside the double range")[0]


def summarize(points: list[Point]) -> SummaryStats:
    """Accumulate the five least-squares sums over the points.

    Sums use exact (correctly rounded) summation, so they are invariant
    under permutation of the input.  The points are read once, so an
    iterator gives the same sums as a list.
    """
    xs, ys = _floats(*_columns(points))
    if not xs:
        raise EmptyInput("summarize requires at least one point")
    return SummaryStats(
        n=len(xs),
        sum_x=_fsum(xs),
        sum_y=_fsum(ys),
        sum_xy=_fsum(x * y for x, y in zip(xs, ys)),
        sum_x2=_fsum(x * x for x in xs),
        sum_y2=_fsum(y * y for y in ys),
    )


def _pearson_from_devs(dx, dy, ws, sx, sy) -> float:
    """Correlation from centered deviations, divided by their largest sizes sx
    and sy so that squaring can neither overflow nor underflow; clamped to [-1, 1]."""
    nxx = _fsum(w * (a / sx) ** 2 for w, a in zip(ws, dx))
    nyy = _fsum(w * (b / sy) ** 2 for w, b in zip(ws, dy))
    nxy = _fsum(w * (a / sx) * (b / sy) for w, a, b in zip(ws, dx, dy))
    return max(-1.0, min(1.0, nxy / math.sqrt(nxx * nyy)))


def _centered(xs, ys, ws, axis: Axis | None = None):
    """Degeneracy checks, centering and r, shared by the line fits and
    ``correlation``.  Returns (xbar, ybar, dx, dy, sx, sy, r), where sx and sy
    are the largest |dx| and |dy|."""
    if min(xs) == max(xs):
        msg = "all x values are equal"
        if axis is Axis.Y_ON_X:
            msg += "; no y-on-x line exists"
        raise DegenerateVariance(msg)
    if min(ys) == max(ys):
        # For Y_ON_X a flat line would fit, but r is then undefined; erroring
        # beats inventing a conventional value.
        raise DegenerateVariance("all y values are equal")
    sw = _fsum(ws)
    xbar = _fsum(w * x for w, x in zip(ws, xs)) / sw
    ybar = _fsum(w * y for w, y in zip(ws, ys)) / sw
    dx = [x - xbar for x in xs]
    dy = [y - ybar for y in ys]
    sx, sy = max(map(abs, dx)), max(map(abs, dy))
    return xbar, ybar, dx, dy, sx, sy, _pearson_from_devs(dx, dy, ws, sx, sy)


def _regress(us, vs, ws, ubar, vbar, du, dv):
    """Weighted fit of v = m*u + b: (m, b, SSE).  Y_ON_X passes (x, y), X_ON_Y
    (y, x); the cross sum (w*du)*dv is order-exact only for unit weights."""
    suu = _fsum(w * a * a for w, a in zip(ws, du))
    suv = _fsum(w * a * b for w, a, b in zip(ws, du, dv))
    if suu < sys.float_info.min:
        raise OutOfRange(f"sum of squared deviations {suu!r} is below the normal double range")
    m = suv / suu
    b = vbar - m * ubar
    sse = _fsum(w * (v - (m * u + b)) ** 2 for w, u, v in zip(ws, us, vs))
    return m, b, sse


def _fit(xs, ys, weights, axis: Axis) -> LinearFit:
    """Least-squares line through the columns xs, ys in y = mx + b form, weighted
    unless ``weights`` is None; equal weights give the unweighted fit bit for bit."""
    if not xs:
        raise EmptyInput("cannot fit an empty point list")
    if len(xs) < 2:
        raise InsufficientData("a line fit needs at least 2 points")
    if weights is not None and len(weights) != len(xs):
        raise LengthMismatch(f"{len(weights)} weights for {len(xs)} points")
    for w in () if weights is None else weights:
        if not (0 < w <= _DOUBLE_MAX):
            raise NonPositiveWeight(f"weight {_shown(w)} must be positive and finite")
    ws = [1.0] * len(xs) if weights is None else [float(w) for w in weights]
    xs, ys = _floats(xs, ys)
    xbar, ybar, dx, dy, sx, sy, r = _centered(xs, ys, ws, axis)
    # Squares of deviations below 2**-511 are subnormal and lose precision;
    # raising beats returning a silently inaccurate fit.
    if min(sx, sy) < 2.0**-511:
        raise OutOfRange("deviations too small to square without underflow")
    if axis is Axis.Y_ON_X:
        m, b, sse = _regress(xs, ys, ws, xbar, ybar, dx, dy)
    else:
        # Regress x on y (x = m'y + b'), then re-express as y = mx + b.
        mp, bp, sse = _regress(ys, xs, ws, ybar, xbar, dy, dx)
        if mp == 0.0:
            raise DegenerateVariance("x-on-y slope is zero; line is vertical in y = mx + b form")
        m, b = 1.0 / mp, -bp / mp
    _require_finite((m, b), "fit overflowed")
    return LinearFit(slope=m, intercept=b, axis=axis, r=r, sse=sse, n=len(xs))


def ols_fit(points: list[Point], axis: Axis = Axis.Y_ON_X) -> LinearFit:
    """Fit the unique SSE-minimizing line for the chosen deviation direction.

    Y_ON_X minimizes vertical deviations, X_ON_Y horizontal ones; an X_ON_Y
    result is re-expressed in y = mx + b form.
    """
    return _fit(*_columns(points), None, axis)


def wls_fit(points: list[Point], weights: list[float]) -> LinearFit:
    """Weighted y-on-x fit minimizing sum(w_i * (y_i - m*x_i - b)^2).

    The reported ``r`` is the weighted correlation and ``sse`` the weighted
    objective; with equal weights both reduce to their OLS values.
    """
    return _fit(*_columns(points), weights, Axis.Y_ON_X)


def _line(fit: LinearFit, xs) -> list[float]:
    """The fitted line at each of ``xs``, all finite or OutOfRange."""
    try:
        return _require_finite([fit.slope * x + fit.intercept for x in xs], "predicted value")
    except OverflowError:  # an x is an int too large for a float
        _require_finite(xs, "x")
        raise


def predict(fit: LinearFit, x: float) -> float:
    """Evaluate the fitted line at x."""
    return _line(fit, (x,))[0]


def _residuals(fit: LinearFit, xs, ys) -> list[float]:
    """v - (m*u + b) at each point, for the line v = m*u + b that the fit
    minimized deviations from: y on x, or x on y for an X_ON_Y fit."""
    try:
        if fit.axis is Axis.Y_ON_X:
            m, b, us, vs = fit.slope, fit.intercept, xs, ys
        else:
            m, b, us, vs = 1.0 / fit.slope, -fit.intercept / fit.slope, ys, xs
        return _require_finite([v - (m * u + b) for u, v in zip(us, vs)], "residual")
    except OverflowError:  # a coordinate is an int too large for a float
        _require_finite(chain.from_iterable(zip(xs, ys)), "non-finite coordinate")
        raise


def residuals(fit: LinearFit, points: list[Point]) -> list[float]:
    """Per-point deviations, in input order.

    Vertical (observed y minus line) for a Y_ON_X fit; the mirrored
    horizontal definition for an X_ON_Y fit.
    """
    return _residuals(fit, *_columns(points))


def sse(fit: LinearFit, points: list[Point]) -> float:
    """Sum of squared deviations of the points from the fitted line."""
    return _fsum(d * d for d in residuals(fit, points))


def _correlation(xs, ys) -> float:
    """``correlation`` of the columns ``xs`` and ``ys``."""
    if len(xs) < 2:
        raise InsufficientData("correlation needs at least 2 points")
    xs, ys = _floats(xs, ys)
    return _centered(xs, ys, [1.0] * len(xs))[-1]


def correlation(points: list[Point]) -> float:
    """Pearson correlation coefficient, clamped to [-1, 1].

    Equals (n*sum(xy) - sum(x)*sum(y)) / sqrt((n*sum(x^2) - sum(x)^2) *
    (n*sum(y^2) - sum(y)^2)), computed in centered form.
    """
    return _correlation(*_columns(points))


def classify_fit(r: float) -> FitClass:
    """Bucket a correlation coefficient: |r| >= 0.9 GOOD, >= 0.5 MODERATE, else POOR."""
    if not (abs(r) <= 1.0):
        raise OutOfRange(f"|r| = {_shown(abs(r))} exceeds 1")
    a = abs(r)
    if a >= 0.9:
        return FitClass.GOOD
    if a >= 0.5:
        return FitClass.MODERATE
    return FitClass.POOR
