"""The two rules every entry point keeps.

1. A computed number is finite, or the call raises a ThermofitError: no inf,
   no NaN, and no untyped OverflowError or LinAlgError, even for inputs at
   the edges of the double range or ints too large for a float.
2. A Series built in code without validation is refused with the error of
   its first violation, the one ``validate`` lists first.
"""

import math
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from thermofit import (
    Axis,
    HeatSinkEntry,
    JacobianMode,
    LinearFit,
    NlFit,
    PackageEntry,
    ProcessorSpec,
    Series,
    StepModelParams,
    build_report,
    builtin_heatsinks,
    classify_fit,
    correlation,
    default_init,
    gauss_newton,
    gradient_descent,
    jacobian,
    junction_temperature,
    max_power,
    model_eval,
    model_sse,
    ols_fit,
    parse_csv,
    predict,
    render_json,
    render_text,
    residuals,
    select_heatsink,
    sse,
    sse_gradient,
    to_csv,
    validate,
    wls_fit,
)
from thermofit.errors import ThermofitError, _require_finite
from thermofit.regression import _fit
from thermofit.svgplot import render_plot

from conftest import synth_series
from test_dataset import any_series

# --- rule 1: finite or a typed error ----------------------------------------------

_FIT = ols_fit([(0.0, 0.0), (1.0, 2.0), (2.0, 4.1)])
_FIT_X_ON_Y = ols_fit([(0.0, 0.0), (1.0, 2.0), (2.0, 4.1)], Axis.X_ON_Y)
_STEP = synth_series(20, 60, 15)  # sampled from t = 0, where exp(-t/tau) is 1 for every tau


def _params(v):
    return StepModelParams(v[0], v[1], abs(v[2]))


def _points(v):
    return [(v[0], v[1]), (v[2], v[3]), (v[4], v[5])]


def _drawn_line(v, axis):
    return LinearFit(v[0], v[1], axis, 0.5, 0.0, 2)


_CALLS = {
    "predict": lambda v: predict(_FIT, v[0]),
    "residuals": lambda v: residuals(_FIT, _points(v)),
    "residuals-x-on-y": lambda v: residuals(_FIT_X_ON_Y, _points(v)),
    # a line built in code, its slope and intercept drawn too
    "predict-line": lambda v: predict(_drawn_line(v, Axis.Y_ON_X), v[2]),
    "residuals-line": lambda v: residuals(_drawn_line(v, Axis.Y_ON_X), _points(v)[1:]),
    "residuals-line-x-on-y": lambda v: residuals(_drawn_line(v, Axis.X_ON_Y), _points(v)[1:]),
    "sse": lambda v: sse(_FIT, _points(v)),
    "ols_fit": lambda v: ols_fit(_points(v)),
    "ols_fit-x-on-y": lambda v: ols_fit(_points(v), Axis.X_ON_Y),
    "wls_fit": lambda v: wls_fit([(0.0, v[3]), (1.0, v[4]), (2.0, v[5])], [abs(w) for w in v[:3]]),
    "correlation": lambda v: correlation(_points(v)),
    "model_eval": lambda v: model_eval(_params(v), v[3]),
    "model_sse": lambda v: model_sse(_params(v), _STEP),
    "sse_gradient": lambda v: sse_gradient(_params(v), _STEP),
    "jacobian": lambda v: jacobian(_params(v), v[3:]),
    "jacobian-finite-diff": lambda v: jacobian(_params(v), v[3:], JacobianMode.FINITE_DIFF),
    "junction_temperature": lambda v: junction_temperature(abs(v[0]), abs(v[1]), v[2]),
    "max_power": lambda v: max_power(v[0], abs(v[1]), v[2]),
    "gauss_newton": lambda v: gauss_newton(_STEP, _params(v), max_iter=20),
    "gradient_descent": lambda v: gradient_descent(_STEP, _params(v), max_iter=20),
    # the line fit on numpy arrays
    "_fit-arrays": lambda v: _fit(v[0::2], v[1::2], None, Axis.Y_ON_X, arrays=True)[0],
    "_fit-arrays-x-on-y": lambda v: _fit(v[0::2], v[1::2], None, Axis.X_ON_Y, arrays=True)[0],
    "_fit-arrays-weighted": lambda v: _fit(v[0::2], v[1::2], [1.0, 2.0, 3.0], Axis.Y_ON_X, arrays=True)[0],
}

_EDGES = [10**400, -(10**400), 1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324, 1e-320, 0.0]
# A Decimal NaN takes no order comparison (decimal.InvalidOperation); a
# Decimal or Fraction is taken as its float, or refused if it has none.
_DECIMAL_EDGES = [Decimal("NaN"), Decimal("-NaN"), Decimal("Infinity"), Decimal("-Infinity"), Decimal("1e400")]
_number = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.integers()
    | st.fractions()
    | st.decimals(allow_nan=False, allow_infinity=False)
    | st.sampled_from(_EDGES + _DECIMAL_EDGES)
)


def _numbers_in(result):
    if isinstance(result, NlFit):
        return [result.sse, result.params.t_ambient_c, result.params.t_final_c, result.params.tau_s]
    if isinstance(result, LinearFit):
        return [result.slope, result.intercept, result.r, result.sse]
    return np.ravel(result).tolist()


@pytest.mark.parametrize("name", list(_CALLS))
@given(values=st.lists(_number, min_size=6, max_size=6))
@example(values=[1e308, -1e308, 10.0, 1e308, 0.0, 1.0])  # inf from predict, model_sse, sse_gradient
@example(values=[20.0, 60.0, 1e-320, 5.0, 10.0, 15.0])  # NaN in the Jacobian; LinAlgError in gauss_newton
@example(values=[10**400, 21.0, 2.0, 22.0, 3.0, 10.0])  # OverflowError: int too large to convert to float
@example(values=[1e-170, 1e-170, 1e-170, 0.0, 1.0, 3.0])  # ZeroDivisionError: r's denominator underflows
@example(values=[10**200, 0.5, 10**200, 1.0, 2.0, 3.0])  # OverflowError: a line's int product added to a float
@example(values=[Fraction(1, 10**400), 0.0, 1.0, 1.0, 1.0, 1.0])  # ZeroDivisionError: 1/slope of an x-on-y line
@example(values=[Decimal("NaN")] * 6)  # decimal.InvalidOperation: the gate's comparison
@example(values=[Decimal("1.5"), 2.0, 3.0, Decimal("1.5"), 5.0, 6.0])  # TypeError: float * Decimal
def test_results_are_finite_or_a_typed_error(name, values):
    try:
        result = _CALLS[name](values)
    except ThermofitError:
        return
    assert all(map(math.isfinite, _numbers_in(result))), result


# --- rule 2: an invalid Series built in code gets the dataset error ------------------

_SERIES_CALLS = {
    "build_report": build_report,
    "build_report-nonlinear": partial(build_report, nonlinear=True),
    "render_plot": lambda s: render_plot(s, _FIT),
    "default_init": default_init,
    "model_sse": partial(model_sse, StepModelParams(20, 60, 15)),
    "gauss_newton": gauss_newton,
    "gradient_descent": gradient_descent,
}


@pytest.mark.parametrize("name", list(_SERIES_CALLS))
@given(series=any_series())
def test_invalid_series_gets_the_error_validate_lists_first(name, series):
    report = validate(series)
    assume(report)
    with pytest.raises(ThermofitError) as info:
        _SERIES_CALLS[name](series)
    assert type(info.value).__name__ == report[0].rule


# --- rule 1 for a plot of any valid series ------------------------------------------

_TINY_SLOPE = LinearFit(1e-308, 20.0, Axis.Y_ON_X, 0.5, 0.0, 2)


@st.composite
def valid_series(draw):
    """1 to 6 samples at strictly increasing times anywhere in [0, DOUBLE_MAX]."""
    times = sorted(draw(st.lists(st.floats(0.0, 1.7976931348623157e308), min_size=1, max_size=6, unique=True)))
    temps = draw(st.lists(st.floats(-273.15, 10000.0), min_size=len(times), max_size=len(times)))
    return Series("s", zip(times, temps))


_finite = st.floats(allow_nan=False, allow_infinity=False)
_lines = st.just(_FIT) | st.builds(_drawn_line, st.tuples(_finite, _finite), st.just(Axis.Y_ON_X))


@given(valid_series(), _lines)
@example(Series("tiny", [(0.0, 20.0), (5e-324, 30.0)]), _FIT)  # ValueError: math domain error
@example(Series("big", [(0.0, 20.0), (1.7e308, 30.0)]), _TINY_SLOPE)  # OverflowError: the padded span is inf
@example(Series("one", [(1e300, 20.0)]), _TINY_SLOPE)  # ZeroDivisionError: 1e300 + 1.0 is 1e300
@example(Series("steep", [(0.0, 20.0), (1.0, 30.0)]), _drawn_line([1.7e308, -1.7e308], Axis.Y_ON_X))  # y span is inf
@example(Series("adjacent", [(1e300, 20.0), (math.nextafter(1e300, math.inf), 30.0)]), _TINY_SLOPE)  # never ended
def test_a_plot_of_a_valid_series_is_an_svg_or_a_typed_error(series, fit):
    try:
        svg = render_plot(series, fit)
    except ThermofitError:
        return
    assert svg.startswith("<?xml") and svg.endswith("</svg>\n")


# --- rule 1 for ints too long to write out -------------------------------------------

# More digits than Python writes out by default (4300): a message that printed
# such an int raised an untyped ValueError, so messages name it instead.
_LONG = 10**5000


@pytest.mark.parametrize("name", list(_CALLS))
@given(values=st.lists(_number | st.sampled_from([_LONG, -_LONG]), min_size=6, max_size=6))
@example(values=[_LONG, 60.0, 10.0, _LONG, 1.0, 2.0])  # model_eval's t, _checked's parameters
def test_results_are_finite_or_a_typed_error_for_long_ints(name, values):
    try:
        result = _CALLS[name](values)
    except ThermofitError:
        return
    assert all(map(math.isfinite, _numbers_in(result))), result


_LONG_CALLS = {
    "classify_fit": lambda: classify_fit(_LONG),
    "wls_fit-weight": lambda: wls_fit([(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)], [_LONG, 1.0, 1.0]),
    "gauss_newton-tol": lambda: gauss_newton(_STEP, tol=-_LONG),
    "gauss_newton-max_iter": lambda: gauss_newton(_STEP, max_iter=-_LONG),
    "gradient_descent-learning_rate": lambda: gradient_descent(_STEP, learning_rate=_LONG),
    "junction_temperature": lambda: junction_temperature(-_LONG, 1.0, 20.0),
    "max_power": lambda: max_power(100.0, -_LONG, 20.0),
    "select_heatsink": lambda: select_heatsink(builtin_heatsinks(), 10.0, 90.0, 25.0, -_LONG),
    "ProcessorSpec": lambda: ProcessorSpec("x", _LONG, ""),
    "PackageEntry": lambda: PackageEntry("x", _LONG, 1.0),
    "to_csv": lambda: to_csv(Series("b", [(_LONG, 1.0)])),
    "to_csv-power_w": lambda: to_csv(Series("b", [(1.0, 1.0)], power_w=_LONG)),
}


@pytest.mark.parametrize("name", list(_LONG_CALLS))
def test_an_int_too_long_to_write_out_gets_a_typed_error(name):
    with pytest.raises(ThermofitError, match="an int too large for a float"):
        _LONG_CALLS[name]()


# --- rule 1 for a Decimal NaN, which takes no order comparison -----------------------

_NAN_CALLS = {
    "_require_finite": lambda v: _require_finite((v,), "value"),
    "classify_fit": classify_fit,
    "wls_fit-weight": lambda v: wls_fit([(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)], [v, 1.0, 1.0]),
    "model_eval": lambda v: model_eval(StepModelParams(20, 60, 15), v),
    "model_sse-params": lambda v: model_sse(StepModelParams(v, 60, 15), _STEP),
    "gauss_newton-tol": lambda v: gauss_newton(_STEP, tol=v),
    "gradient_descent-learning_rate": lambda v: gradient_descent(_STEP, learning_rate=v),
    "build_report-power_w": lambda v: build_report(Series("p", [(0.0, 20.0), (1.0, 21.0)], power_w=v)),
    "junction_temperature": lambda v: junction_temperature(v, 1.0, 20.0),
    "max_power": lambda v: max_power(100.0, v, 20.0),
    "select_heatsink": lambda v: select_heatsink(builtin_heatsinks(), v, 90.0, 25.0, 3.0),
    "select_heatsink-theta_jc": lambda v: select_heatsink(builtin_heatsinks(), 10.0, 90.0, 25.0, v),
    "ProcessorSpec": lambda v: ProcessorSpec("x", v, ""),
    "PackageEntry": lambda v: PackageEntry("x", v, 1.0),
    "HeatSinkEntry": lambda v: HeatSinkEntry("x", v),
}


@pytest.mark.parametrize("value", [Decimal("NaN"), Decimal("sNaN")], ids=str)
@pytest.mark.parametrize("name", list(_NAN_CALLS))
def test_a_decimal_nan_gets_a_typed_error(name, value):
    with pytest.raises(ThermofitError):
        _NAN_CALLS[name](value)


# --- rule 1 for a valid series of numbers that are not floats ------------------------

# A step response sampled at 7 times, with a ripple so that the curve fit has a
# residual; each series holds other numbers than floats.
_RISE = [60.0 - 40.0 * math.exp(-i / 3.0) + 0.3 * math.sin(i) for i in range(7)]
_NOT_FLOATS = {
    "fraction": Series("q", [(Fraction(3, 2) * i, y) for i, y in enumerate(_RISE, 1)]),
    "decimal": Series("q", [(Decimal("1.5") * i, Decimal(repr(y))) for i, y in enumerate(_RISE, 1)]),
    "bool": Series("q", [(False, _RISE[0]), (True, _RISE[1]), *((i, y) for i, y in enumerate(_RISE[2:], 2))]),
}
_OF_A_SERIES = {
    "build_report": lambda s: build_report(s),
    "build_report-nonlinear": lambda s: build_report(s, nonlinear=True),
    "render_json": lambda s: render_json(build_report(s)),
    "render_json-nonlinear": lambda s: render_json(build_report(s, nonlinear=True)),
    "render_text": lambda s: render_text(build_report(s)),
    "render_text-nonlinear": lambda s: render_text(build_report(s, nonlinear=True)),
    "render_plot": lambda s: render_plot(s, _FIT, default_init(s)),
    "default_init": default_init,
}


def _floats(series):
    return Series(series.label, zip(map(float, series.times), map(float, series.temps)))


@pytest.mark.parametrize("kind", list(_NOT_FLOATS))
@pytest.mark.parametrize("name", list(_OF_A_SERIES))
def test_a_series_of_other_numbers_gives_what_its_floats_give(name, kind):
    series = _NOT_FLOATS[kind]
    assert _OF_A_SERIES[name](series) == _OF_A_SERIES[name](_floats(series))


@pytest.mark.parametrize("kind", list(_NOT_FLOATS))
def test_to_csv_writes_the_float_of_a_number_that_is_not_one(kind):
    series = _NOT_FLOATS[kind]
    assert parse_csv(to_csv(series)) == _floats(series)
