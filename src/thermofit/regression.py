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
import operator
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, repeat
from types import SimpleNamespace

from .errors import (
    _DOUBLE_MAX,
    DegenerateVariance,
    EmptyInput,
    InsufficientData,
    LengthMismatch,
    NonPositiveWeight,
    OutOfRange,
    _fsum,
    _ordered,
    _require_finite,
    _shown,
)

Point = tuple[float, float]

_ZERO_X_ON_Y_SLOPE = "x-on-y slope is zero; line is vertical in y = mx + b form"


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


def _sum(terms) -> float:
    """The exact sum of ``terms``; OutOfRange unless it is finite."""
    return _require_finite((_fsum(terms),), "a sum is outside the double range")[0]


# --- the exact core, over list or array columns ---------------------------------
#
# The line fit is written once, over the element-wise steps of a backend: Python
# lists of floats, or numpy float64 arrays.  Each backend forms every product,
# quotient and square with the same IEEE-754 operation in the same order (squares
# go through the C library's pow, which Python's ** and np.float_power both
# call), and each sum is _sum's exact sum of the same values, so both give the
# same result bit for bit, and the same error from the same check.
#
# On lists, a step that a sum consumes is a lazy map, so that an OverflowError
# of Python's ** surfaces inside _sum, as OutOfRange; a centered column and the
# deviations from the line, which are read more than once, are lists.
_LISTS = SimpleNamespace(
    quiet=nullcontext,
    sum=_sum,
    same=lambda a: min(a) == max(a),
    mul=lambda a, b: map(operator.mul, a, b),
    div=lambda a, s: map(operator.truediv, a, repeat(s)),
    square=lambda a: map(pow, a, repeat(2.0)),
    minus=lambda a, c: [v - c for v in a],
    absmax=lambda a: max(map(abs, a)),
    off_line=lambda us, vs, m, b: [v - (m * u + b) for u, v in zip(us, vs)],
    listed=list,
)


def _arrays(np) -> SimpleNamespace:
    """The steps on numpy float64 arrays: the extremes are numpy's, the sums
    _sum's, and a value out of range is left for _sum to refuse."""
    return SimpleNamespace(
        quiet=lambda: np.errstate(all="ignore"),
        sum=lambda a: _sum(a.tolist()),
        same=lambda a: a.min() == a.max(),
        mul=operator.mul,
        div=operator.truediv,
        square=lambda a: np.float_power(a, 2.0),
        minus=operator.sub,
        absmax=lambda a: float(np.abs(a).max()),
        off_line=lambda us, vs, m, b: vs - (m * us + b),
        listed=lambda a: a.tolist(),
    )


def _backend(xs, ys, weights=None, arrays: bool = False):
    """The steps to compute on and the columns x, y and w in their form: numpy
    float64 arrays with ``arrays``, else lists of floats.  Every coordinate is
    checked first, OutOfRange at the first that is not finite, so both forms
    hold the same values.  No weights are weights of 1.0; given weights must
    be checked."""
    _require_finite(chain(xs, ys), "non-finite coordinate")
    if arrays:
        import numpy as np  # deferred: only a fit on arrays needs numpy

        w = np.ones(len(xs)) if weights is None else np.array(weights, dtype=float)
        return _arrays(np), np.array(xs, dtype=float), np.array(ys, dtype=float), w
    ws = [1.0] * len(xs) if weights is None else list(map(float, weights))
    return _LISTS, list(map(float, xs)), list(map(float, ys)), ws


def summarize(points: list[Point]) -> SummaryStats:
    """Accumulate the five least-squares sums over the points.

    Sums use exact (correctly rounded) summation, so they are invariant
    under permutation of the input.  The points are read once, so an
    iterator gives the same sums as a list.
    """
    on, xs, ys, _ = _backend(*_columns(points))
    if not xs:
        raise EmptyInput("summarize requires at least one point")
    return SummaryStats(
        n=len(xs),
        sum_x=on.sum(xs),
        sum_y=on.sum(ys),
        sum_xy=on.sum(on.mul(xs, ys)),
        sum_x2=on.sum(on.mul(xs, xs)),
        sum_y2=on.sum(on.mul(ys, ys)),
    )


def _pearson_from_devs(on, dx, dy, ws, sx, sy) -> float:
    """Correlation from centered deviations, divided by their largest sizes sx
    and sy so that squaring can neither overflow nor underflow; clamped to [-1, 1]."""
    nxx = on.sum(on.mul(ws, on.square(on.div(dx, sx))))
    nyy = on.sum(on.mul(ws, on.square(on.div(dy, sy))))
    nxy = on.sum(on.mul(on.mul(ws, on.div(dx, sx)), on.div(dy, sy)))
    return _clamped_r(nxx, nyy, nxy)


def _clamped_r(nxx, nyy, nxy) -> float:
    """nxy / sqrt(nxx * nyy) clamped to [-1, 1]; the square roots are taken
    one at a time where the product would leave the normal double range."""
    if min(nxx, nyy) < sys.float_info.min:
        raise OutOfRange(f"weighted sum of squares {min(nxx, nyy)!r} is below the normal double range")
    product = nxx * nyy
    if sys.float_info.min <= product <= _DOUBLE_MAX:
        root = math.sqrt(product)
    else:
        root = math.sqrt(nxx) * math.sqrt(nyy)
    return max(-1.0, min(1.0, nxy / root))


def _centered(on, xs, ys, ws, axis: Axis | None = None):
    """Degeneracy checks, centering and r on the backend ``on``, shared by the
    line fits and ``correlation``.  Returns (xbar, ybar, dx, dy, sx, sy, r),
    where sx and sy are the largest |dx| and |dy|."""
    if on.same(xs):
        msg = "all x values are equal"
        if axis is Axis.Y_ON_X:
            msg += "; no y-on-x line exists"
        raise DegenerateVariance(msg)
    if on.same(ys):
        # For Y_ON_X a flat line would fit, but r is then undefined; erroring
        # beats inventing a conventional value.
        raise DegenerateVariance("all y values are equal")
    sw = on.sum(ws)
    xbar = on.sum(on.mul(ws, xs)) / sw
    ybar = on.sum(on.mul(ws, ys)) / sw
    dx, dy = on.minus(xs, xbar), on.minus(ys, ybar)
    sx, sy = on.absmax(dx), on.absmax(dy)
    return xbar, ybar, dx, dy, sx, sy, _pearson_from_devs(on, dx, dy, ws, sx, sy)


def _regress(on, ubar, vbar, du, dv, ws):
    """Weighted fit of v = m*u + b: (m, b).  Y_ON_X passes (x, y), X_ON_Y
    (y, x); the cross sum (w*du)*dv is order-exact only for unit weights."""
    suu = on.sum(on.mul(on.mul(ws, du), du))
    suv = on.sum(on.mul(on.mul(ws, du), dv))
    if suu < sys.float_info.min:
        raise OutOfRange(f"sum of squared deviations {suu!r} is below the normal double range")
    m = suv / suu
    return m, vbar - m * ubar


def _deviations(on, m, b, axis: Axis, xs, ys):
    """The deviations of the columns from the line y = m*x + b that an ``axis``
    fit minimizes, on the backend ``on``: y - (m*x + b) for Y_ON_X, and for
    X_ON_Y x - (m'*y + b') of the same line as x = m'*y + b', m' = 1/m and
    b' = -b/m; DegenerateVariance for an X_ON_Y slope of zero."""
    if axis is Axis.Y_ON_X:
        return on.off_line(xs, ys, m, b)
    if m == 0.0:
        raise DegenerateVariance(_ZERO_X_ON_Y_SLOPE)
    return on.off_line(ys, xs, 1.0 / m, -b / m)


def _fit(xs, ys, weights, axis: Axis, arrays: bool = False) -> tuple[LinearFit, list[float]]:
    """Least-squares line through the columns xs, ys in y = mx + b form, weighted
    unless ``weights`` is None; equal weights give the unweighted fit bit for bit.
    Returns the fit and, as a list, the deviations its SSE squared, the
    residuals of :func:`_residuals`.  With ``arrays`` the steps run on numpy
    arrays, with the same result bit for bit.  The weights are read once, so
    an iterator works too."""
    weights = None if weights is None else list(weights)
    if not xs:
        raise EmptyInput("cannot fit an empty point list")
    if len(xs) < 2:
        raise InsufficientData("a line fit needs at least 2 points")
    if weights is not None and len(weights) != len(xs):
        raise LengthMismatch(f"{len(weights)} weights for {len(xs)} points")
    for w in () if weights is None else weights:
        if not (0 < _ordered(w) <= _DOUBLE_MAX):
            raise NonPositiveWeight(f"weight {_shown(w)} must be positive and finite")
    on, xs, ys, ws = _backend(xs, ys, weights, arrays)
    with on.quiet():
        xbar, ybar, dx, dy, sx, sy, r = _centered(on, xs, ys, ws, axis)
        # Squares of deviations below 2**-511 are subnormal and lose precision;
        # raising beats returning a silently inaccurate fit.
        if min(sx, sy) < 2.0**-511:
            raise OutOfRange("deviations too small to square without underflow")
        if axis is Axis.Y_ON_X:
            m, b = _regress(on, xbar, ybar, dx, dy, ws)
        else:
            # Regress x on y (x = m'y + b'), then re-express as y = mx + b.
            mp, bp = _regress(on, ybar, xbar, dy, dx, ws)
            if mp == 0.0:
                raise DegenerateVariance(_ZERO_X_ON_Y_SLOPE)
            m, b = 1.0 / mp, -bp / mp
        _require_finite((m, b), "fit overflowed")
        # the SSE of the line as reported, so that residuals() and sse() give it back
        deviations = _deviations(on, m, b, axis, xs, ys)
        sse = on.sum(on.mul(ws, on.square(deviations)))
    return LinearFit(slope=m, intercept=b, axis=axis, r=r, sse=sse, n=len(xs)), on.listed(deviations)


def ols_fit(points: list[Point], axis: Axis = Axis.Y_ON_X) -> LinearFit:
    """Fit the unique SSE-minimizing line for the chosen deviation direction.

    Y_ON_X minimizes vertical deviations, X_ON_Y horizontal ones; an X_ON_Y
    result is re-expressed in y = mx + b form.
    """
    return _fit(*_columns(points), None, axis)[0]


def wls_fit(points: list[Point], weights: list[float]) -> LinearFit:
    """Weighted y-on-x fit minimizing sum(w_i * (y_i - m*x_i - b)^2).

    The reported ``r`` is the weighted correlation and ``sse`` the weighted
    objective; with equal weights both reduce to their OLS values.
    """
    return _fit(*_columns(points), weights, Axis.Y_ON_X)[0]


def _line(fit: LinearFit, xs) -> list[float]:
    """The fitted line at each of the sequence ``xs``.  The slope and intercept
    are checked first ("line parameter"), then each x ("x"), and taken as
    floats, then each value the line takes ("predicted value"): OutOfRange at
    the first that is not finite."""
    m, b = map(float, _require_finite((fit.slope, fit.intercept), "line parameter"))
    return _require_finite([m * x + b for x in map(float, _require_finite(xs, "x"))], "predicted value")


def predict(fit: LinearFit, x: float) -> float:
    """Evaluate the fitted line at x."""
    return _line(fit, (x,))[0]


def _residuals(fit: LinearFit, xs, ys) -> list[float]:
    """The deviation at each point of the sequences ``xs``, ``ys`` that the fit
    minimized (:func:`_deviations`).  The slope and intercept are checked first
    ("line parameter"), then the coordinates, x before y at each point
    ("non-finite coordinate"), and taken as floats, then each deviation
    ("residual"): OutOfRange at the first that is not finite."""
    m, b = map(float, _require_finite((fit.slope, fit.intercept), "line parameter"))
    _require_finite(chain.from_iterable(zip(xs, ys)), "non-finite coordinate")
    xs, ys = list(map(float, xs)), list(map(float, ys))
    return _require_finite(_deviations(_LISTS, m, b, fit.axis, xs, ys), "residual")


def residuals(fit: LinearFit, points: list[Point]) -> list[float]:
    """Per-point deviations, in input order.

    Vertical (observed y minus line) for a Y_ON_X fit; the mirrored
    horizontal definition for an X_ON_Y fit.
    """
    return _residuals(fit, *_columns(points))


def sse(fit: LinearFit, points: list[Point]) -> float:
    """Sum of squared deviations of the points from the fitted line; for an
    unweighted fit of the same points, exactly ``fit.sse``."""
    return _sum(_LISTS.square(residuals(fit, points)))


def _correlation(xs, ys) -> float:
    """``correlation`` of the columns ``xs`` and ``ys``."""
    if len(xs) < 2:
        raise InsufficientData("correlation needs at least 2 points")
    return _centered(*_backend(xs, ys))[-1]


def correlation(points: list[Point]) -> float:
    """Pearson correlation coefficient, clamped to [-1, 1].

    Equals (n*sum(xy) - sum(x)*sum(y)) / sqrt((n*sum(x^2) - sum(x)^2) *
    (n*sum(y^2) - sum(y)^2)), computed in centered form.
    """
    return _correlation(*_columns(points))


def classify_fit(r: float) -> FitClass:
    """Bucket a correlation coefficient: |r| >= 0.9 GOOD, >= 0.5 MODERATE, else POOR."""
    a = abs(_ordered(r))
    if not (a <= 1.0):
        raise OutOfRange(f"|r| = {_shown(a)} exceeds 1")
    if a >= 0.9:
        return FitClass.GOOD
    if a >= 0.5:
        return FitClass.MODERATE
    return FitClass.POOR
