import math
import random

import pytest
from hypothesis import assume, example, given, strategies as st

from thermofit import (
    Axis,
    FitClass,
    LinearFit,
    classify_fit,
    correlation,
    ols_fit,
    predict,
    residuals,
    sse,
    summarize,
    wls_fit,
)
from thermofit.errors import (
    DegenerateVariance,
    EmptyInput,
    InsufficientData,
    LengthMismatch,
    NonPositiveWeight,
    OutOfRange,
    ThermofitError,
)

from thermofit.regression import (
    _affine_arrays,
    _fit,
    _fit_arrays,
    _line,
    _on_arrays,
    _residuals,
    _square,
)

from oracles import FULL, IDLE, TIMES, brute_force_line, decimal_correlation, line_sse

IDLE_PTS = [(float(t), float(y)) for t, y in zip(TIMES, IDLE)]
FULL_PTS = [(float(t), float(y)) for t, y in zip(TIMES, FULL)]
FULL_XS, FULL_YS = (list(c) for c in zip(*FULL_PTS))

# Confirmed against the brute-force and exact-decimal oracles before freezing
# (tests below re-derive them; these constants document the expectation).
IDLE_SLOPE, IDLE_INTERCEPT = 0.16146757, 18.70509061
FULL_SLOPE, FULL_INTERCEPT = 0.72875373, 17.50440718
IDLE_R = 0.96670418
FULL_R = 0.96644468


def random_points(rng, n=None, lo=-100.0, hi=100.0):
    n = n or rng.randint(2, 50)
    return [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]


# --- summarize ---------------------------------------------------------------


def test_summarize_idle_matches_published_sums():
    s = summarize(IDLE_PTS)
    assert s.n == 13
    assert s.sum_x == pytest.approx(391.0, abs=1e-9)
    assert s.sum_y == pytest.approx(306.3, abs=1e-9)
    assert s.sum_xy == pytest.approx(9937.7, abs=1e-9)
    assert s.sum_x2 == pytest.approx(16251.0, abs=1e-9)


def test_summarize_full_matches_published_sums():
    s = summarize(FULL_PTS)
    assert s.sum_y == pytest.approx(512.5, abs=1e-9)
    assert s.sum_xy == pytest.approx(18687.2, abs=1e-9)


def test_summarize_single_origin_point():
    s = summarize([(0.0, 0.0)])
    assert (s.n, s.sum_x, s.sum_y, s.sum_xy, s.sum_x2, s.sum_y2) == (1, 0, 0, 0, 0, 0)


def test_summarize_empty():
    with pytest.raises(EmptyInput):
        summarize([])


def test_summarize_sum_overflow_is_out_of_range():
    # finite coordinates whose exact sum overflows: math.fsum's OverflowError was untyped
    with pytest.raises(OutOfRange):
        summarize([(1e308, 0.0), (1e308, 1.0)])


def test_summarize_order_invariant_exactly():
    rng = random.Random(101)
    for _ in range(20):
        pts = random_points(rng)
        shuffled = pts[:]
        rng.shuffle(shuffled)
        a, b = summarize(pts), summarize(shuffled)
        assert (a.sum_x, a.sum_y, a.sum_xy, a.sum_x2, a.sum_y2) == (
            b.sum_x,
            b.sum_y,
            b.sum_xy,
            b.sum_x2,
            b.sum_y2,
        )


def test_summarize_cauchy_schwarz():
    rng = random.Random(102)
    for _ in range(100):
        s = summarize(random_points(rng))
        assert s.n * s.sum_x2 - s.sum_x**2 >= -1e-9 * (1 + abs(s.n * s.sum_x2))
        assert s.n * s.sum_y2 - s.sum_y**2 >= -1e-9 * (1 + abs(s.n * s.sum_y2))


# --- ols_fit ------------------------------------------------------------------


def test_idle_fit_against_oracles():
    fit = ols_fit(IDLE_PTS)
    m_bf, b_bf = brute_force_line(IDLE_PTS)
    assert abs(fit.slope - m_bf) <= 1e-5
    assert abs(fit.intercept - b_bf) <= 1e-5
    assert fit.slope == pytest.approx(IDLE_SLOPE, abs=1e-3)
    assert fit.intercept == pytest.approx(IDLE_INTERCEPT, abs=1e-3)


def test_full_fit_against_oracles():
    fit = ols_fit(FULL_PTS)
    m_bf, b_bf = brute_force_line(FULL_PTS)
    assert abs(fit.slope - m_bf) <= 1e-5
    assert abs(fit.intercept - b_bf) <= 1e-5
    assert fit.slope == pytest.approx(FULL_SLOPE, abs=1e-3)
    assert fit.intercept == pytest.approx(FULL_INTERCEPT, abs=1e-3)


def test_collinear_fit_both_axes():
    pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
    for axis in Axis:
        fit = ols_fit(pts, axis)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r == 1.0


def test_ols_errors():
    with pytest.raises(EmptyInput):
        ols_fit([])
    with pytest.raises(InsufficientData):
        ols_fit([(1.0, 2.0)])
    with pytest.raises(DegenerateVariance):
        ols_fit([(2.0, 1.0), (2.0, 5.0)])  # vertical data, y-on-x
    with pytest.raises(DegenerateVariance):
        ols_fit([(1.0, 3.0), (5.0, 3.0)], Axis.X_ON_Y)  # horizontal data, x-on-y
    with pytest.raises(OutOfRange):
        ols_fit([(0.0, 0.0), (1.0, float("inf"))])


def test_x_on_y_reexpression():
    # x = m'y + b' re-expressed as y = mx + b must invert exactly
    rng = random.Random(103)
    pts = random_points(rng, 20)
    fit = ols_fit(pts, Axis.X_ON_Y)
    swapped = ols_fit([(y, x) for x, y in pts], Axis.Y_ON_X)
    assert fit.slope == pytest.approx(1.0 / swapped.slope, rel=1e-12)
    assert fit.intercept == pytest.approx(-swapped.intercept / swapped.slope, rel=1e-9)


def test_oracle_equivalence_random_suite():
    rng = random.Random(20260808)
    for _ in range(12):
        pts = random_points(rng, rng.randint(3, 12))
        fit = ols_fit(pts)
        m_bf, b_bf = brute_force_line(pts)
        assert abs(fit.slope - m_bf) <= 1e-5
        assert abs(fit.intercept - b_bf) <= 1e-5


# --- predict / residuals / sse -------------------------------------------------


def _manual_fit(m, b, axis=Axis.Y_ON_X, r=0.0, s=0.0, n=2):
    from thermofit import LinearFit

    return LinearFit(slope=m, intercept=b, axis=axis, r=r, sse=s, n=n)


def test_predict_examples():
    assert predict(_manual_fit(1.0, 0.0), 7.0) == 7.0
    assert predict(_manual_fit(0.0, 20.2), 1000.0) == 20.2
    fit = ols_fit(IDLE_PTS)
    assert predict(fit, 60.0) == pytest.approx(28.3931, abs=1e-3)


def test_residuals_examples():
    assert residuals(_manual_fit(1.0, 0.0), [(0.0, 0.0), (1.0, 2.0)]) == [0.0, 1.0]
    assert residuals(_manual_fit(0.0, 0.0), [(1.0, 3.0), (2.0, 4.0)]) == [3.0, 4.0]


def test_residuals_of_own_fit_sum_to_zero():
    fit = ols_fit(FULL_PTS)
    scale = 1e-9 * (1 + math.fsum(abs(y) for _, y in FULL_PTS))
    assert abs(math.fsum(residuals(fit, FULL_PTS))) <= scale


def test_residuals_mirrored_for_x_on_y():
    pts = [(0.0, 1.0), (2.0, 2.0), (3.0, 5.0)]
    fit = ols_fit(pts, Axis.X_ON_Y)
    mp, bp = 1.0 / fit.slope, -fit.intercept / fit.slope
    expected = [x - (mp * y + bp) for x, y in pts]
    assert residuals(fit, pts) == expected
    assert sse(fit, pts) == pytest.approx(fit.sse, rel=1e-12)


def test_sse_examples():
    pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
    assert sse(ols_fit(pts), pts) == 0.0
    assert sse(_manual_fit(0.0, 0.0), [(0.0, 1.0), (0.0, 2.0)]) == 5.0
    fit = ols_fit(IDLE_PTS)
    m_bf, b_bf = brute_force_line(IDLE_PTS)
    assert sse(fit, IDLE_PTS) == pytest.approx(line_sse(IDLE_PTS, m_bf, b_bf), rel=1e-9)
    assert fit.sse == pytest.approx(sse(fit, IDLE_PTS), rel=1e-12)


# --- correlation / classify ----------------------------------------------------


def test_correlation_exact_lines():
    assert correlation([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]) == 1.0
    assert correlation([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]) == -1.0


def test_correlation_builtin_against_decimal_oracle():
    assert correlation(FULL_PTS) == pytest.approx(decimal_correlation(TIMES, FULL), abs=1e-12)
    assert correlation(IDLE_PTS) == pytest.approx(decimal_correlation(TIMES, IDLE), abs=1e-12)
    assert correlation(FULL_PTS) == pytest.approx(0.966, abs=1e-3)
    assert correlation(IDLE_PTS) == pytest.approx(0.967, abs=1e-3)


def test_correlation_errors():
    with pytest.raises(InsufficientData):
        correlation([(1.0, 1.0)])
    with pytest.raises(DegenerateVariance):
        correlation([(1.0, 1.0), (1.0, 2.0)])
    with pytest.raises(DegenerateVariance):
        correlation([(1.0, 2.0), (3.0, 2.0)])


@given(
    st.lists(
        st.tuples(
            st.floats(-1e100, 1e100, allow_nan=False),
            st.floats(-1e100, 1e100, allow_nan=False),
        ),
        min_size=2,
        max_size=40,
    )
)
def test_correlation_bounded(pts):
    assume(min(x for x, _ in pts) != max(x for x, _ in pts))
    assume(min(y for _, y in pts) != max(y for _, y in pts))
    r = correlation(pts)
    assert -1.0 <= r <= 1.0


def test_classify_thresholds():
    assert classify_fit(0.966) is FitClass.GOOD
    assert classify_fit(-1.0) is FitClass.GOOD
    assert classify_fit(0.1) is FitClass.POOR
    assert classify_fit(0.9) is FitClass.GOOD
    assert classify_fit(0.8999) is FitClass.MODERATE
    assert classify_fit(0.5) is FitClass.MODERATE
    assert classify_fit(-0.49) is FitClass.POOR
    assert FitClass.GOOD > FitClass.MODERATE > FitClass.POOR
    with pytest.raises(OutOfRange):
        classify_fit(1.1)
    with pytest.raises(OutOfRange):
        classify_fit(float("nan"))


# --- wls_fit --------------------------------------------------------------------


def test_wls_equal_weights_is_ols_exactly():
    rng = random.Random(104)
    for _ in range(100):
        pts = random_points(rng, rng.randint(2, 30))
        try:
            o = ols_fit(pts)
        except DegenerateVariance:
            continue
        w = wls_fit(pts, [1.0] * len(pts))
        assert (w.slope, w.intercept) == (o.slope, o.intercept)
        assert w.r == o.r and w.sse == o.sse


def test_wls_dominant_weight_pins_point():
    pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 5.0)]
    fit = wls_fit(pts, [1.0, 1.0, 1e6])
    assert abs(predict(fit, 2.0) - 5.0) < 1e-3
    prev = math.inf
    for w3 in (1.0, 10.0, 100.0, 1e4, 1e6):
        d = residuals(wls_fit(pts, [1.0, 1.0, w3]), pts)[2]
        assert abs(d) < prev
        prev = abs(d)


def test_wls_two_points_any_weights():
    fit = wls_fit([(0.0, 1.0), (1.0, 3.0)], [1.0, 2.0])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)


def test_wls_errors():
    pts = [(0.0, 0.0), (1.0, 1.0)]
    with pytest.raises(LengthMismatch):
        wls_fit(pts, [1.0])
    with pytest.raises(NonPositiveWeight):
        wls_fit(pts, [1.0, 0.0])
    with pytest.raises(NonPositiveWeight):
        wls_fit(pts, [1.0, -2.0])
    with pytest.raises(NonPositiveWeight):
        wls_fit(pts, [1.0, float("inf")])
    with pytest.raises(EmptyInput):
        wls_fit([], [])
    # a single point raised DegenerateVariance, where ols_fit raises InsufficientData
    with pytest.raises(InsufficientData, match="a line fit needs at least 2 points"):
        wls_fit([(1.0, 2.0)], [1.0])
    with pytest.raises(DegenerateVariance):
        wls_fit([(1.0, 0.0), (1.0, 1.0)], [1.0, 1.0])


# --- property suite (fixed 100-case random suites) -------------------------------


def test_optimality_under_perturbation():
    rng = random.Random(105)
    for _ in range(100):
        pts = random_points(rng)
        fit = ols_fit(pts)
        base = sse(fit, pts)
        for eps in (1e-3, 1e-2):
            for dm in (-eps, 0.0, eps):
                for db in (-eps, 0.0, eps):
                    if dm == db == 0.0:
                        continue
                    perturbed = line_sse(pts, fit.slope + dm, fit.intercept + db)
                    assert perturbed >= base - 1e-9 * (1 + base)


def test_normal_equations():
    rng = random.Random(106)
    for _ in range(100):
        pts = random_points(rng)
        fit = ols_fit(pts)
        d = residuals(fit, pts)
        scale = 1e-9 * (1 + math.fsum(abs(y) for _, y in pts))
        assert abs(math.fsum(d)) <= scale
        assert abs(math.fsum(x * di for (x, _), di in zip(pts, d))) <= scale * 100


def test_centroid_passage():
    rng = random.Random(107)
    for _ in range(100):
        pts = random_points(rng)
        fit = ols_fit(pts)
        xbar = math.fsum(x for x, _ in pts) / len(pts)
        ybar = math.fsum(y for _, y in pts) / len(pts)
        assert ybar == pytest.approx(fit.slope * xbar + fit.intercept, abs=1e-9 * (1 + abs(ybar)))


def test_slope_product_equals_r_squared():
    rng = random.Random(108)
    for _ in range(100):
        pts = random_points(rng)
        m_yx = ols_fit(pts).slope
        m_xy = ols_fit([(y, x) for x, y in pts]).slope  # x-on-y slope in x = m'y + b' form
        r = correlation(pts)
        assert m_yx * m_xy == pytest.approx(r * r, abs=1e-9)


def test_regressions_coincide_iff_collinear():
    pts = [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]  # exactly collinear
    y_on_x = ols_fit(pts, Axis.Y_ON_X)
    x_on_y = ols_fit(pts, Axis.X_ON_Y)
    assert y_on_x.slope == pytest.approx(x_on_y.slope, rel=1e-12)
    assert y_on_x.intercept == pytest.approx(x_on_y.intercept, rel=1e-12)
    noisy = [(0.0, 1.1), (1.0, 2.9), (2.0, 5.2), (3.0, 6.6)]
    assert ols_fit(noisy).slope != ols_fit(noisy, Axis.X_ON_Y).slope


def test_affine_equivariance():
    rng = random.Random(109)
    for _ in range(100):
        pts = random_points(rng, rng.randint(3, 30))
        a = rng.uniform(0.1, 5.0)
        c = rng.uniform(-50.0, 50.0)
        base = ols_fit(pts)
        scaled = ols_fit([(x, a * y + c) for x, y in pts])
        assert scaled.slope == pytest.approx(a * base.slope, rel=1e-9, abs=1e-9)
        assert scaled.intercept == pytest.approx(a * base.intercept + c, rel=1e-9, abs=1e-7)
        assert scaled.r == pytest.approx(base.r, abs=1e-12)
        shifted = ols_fit([(x + c, y) for x, y in pts])
        assert shifted.slope == pytest.approx(base.slope, rel=1e-9, abs=1e-9)
        assert shifted.intercept == pytest.approx(
            base.intercept - base.slope * c, rel=1e-9, abs=1e-7
        )
        assert shifted.r == pytest.approx(base.r, abs=1e-10)


@given(st.integers(-300, 300))
@example(160)  # squares overflow: slope and sse came back NaN
@example(153)  # finite terms whose exact sum overflows
@example(-160)  # squares subnormal: slope silently off in the 8th digit
@example(-200)  # squares underflow to zero: a false DegenerateVariance
def test_scaled_fit_is_exact_or_out_of_range(k):
    scale = 10.0**k
    pts = [(x * scale, y * scale) for x, y in FULL_PTS]
    for axis in Axis:
        base = ols_fit(FULL_PTS, axis)
        try:
            fit = ols_fit(pts, axis)
        except OutOfRange:
            continue
        assert fit.slope == pytest.approx(base.slope, rel=1e-9)
        assert fit.intercept == pytest.approx(base.intercept * scale, rel=1e-9)


@pytest.mark.parametrize(
    "pts,axis",
    [
        # x variance overflows while the cross sum does not: slope 0.0 came back
        ([(-1e308, 0.0), (1e308, 1.0)], Axis.Y_ON_X),
        # nearly uncorrelated x-on-y fit: re-expressed slope 1/m' overflowed to inf
        ([(0.0, 0.0), (3e-154, 1.5e153), (3e-154, 3e153), (1e-160, 4.5e153)], Axis.X_ON_Y),
        # valid logger times near the top of the double range: fsum overflowed
        ([(1e308, 20.0), (1.2e308, 21.0), (1.4e308, 23.0)], Axis.Y_ON_X),
    ],
)
def test_fits_outside_double_range_raise(pts, axis):
    with pytest.raises(OutOfRange):
        ols_fit(pts, axis)


# --- exact sums stay in the double range ---------------------------------------------

_LINE_FITS = [_manual_fit(1.0, 0.0), _manual_fit(1.0, 0.0, Axis.X_ON_Y)]

# A mantissa times a power of ten, from subnormal to near the double maximum.
_scaled = st.builds(
    lambda m, k: m * 10.0**k, st.floats(-1.79, 1.79, allow_nan=False), st.integers(-320, 308)
)


@given(st.lists(st.tuples(_scaled, _scaled), min_size=2, max_size=8))
@example([(1e155, 1.0), (2e155, 2.0)])  # sum_x2 came back inf
def test_sums_are_finite_or_out_of_range(pts):
    def finite_or_out_of_range(call):
        try:
            values = call()
        except OutOfRange:
            return
        assert all(map(math.isfinite, values))

    finite_or_out_of_range(lambda: vars(summarize(pts)).values())
    for fit in _LINE_FITS:
        finite_or_out_of_range(lambda: [sse(fit, pts)])
    if len(set(x for x, _ in pts)) > 1 and len(set(y for _, y in pts)) > 1:
        finite_or_out_of_range(lambda: [correlation(pts)])


@pytest.mark.parametrize(
    "call",
    [
        # a centered x overflows to inf; r came back 1.0 (it is about -0.85)
        lambda: correlation([(1.7e308, 1.0), (-1.5e308, 2.0), (-0.8e308, 3.0)]),
        # squares overflow term by term; sum_x2 came back inf
        lambda: summarize([(1e155, 1.0), (2e155, 2.0)]),
        # inf + -inf inside math.fsum raised an untyped ValueError
        lambda: summarize([(1e200, 1e200), (-1e200, 1e200)]),
        lambda: sse(_LINE_FITS[0], [(0.0, 0.0), (1e200, 1.0)]),  # came back inf
        lambda: sse(_LINE_FITS[0], [(0.0, 0.0), (math.nan, 1.0)]),  # came back nan
        lambda: residuals(_LINE_FITS[0], [(math.nan, 1.0), (1e308, 0.0)]),  # came back [nan, -inf]
    ],
    ids=[
        "correlation-dev-overflow",
        "summarize-square-overflow",
        "summarize-inf-minus-inf",
        "sse-overflow",
        "sse-nan",
        "residuals-nan-and-overflow",
    ],
)
def test_sums_outside_double_range_raise(call):
    with pytest.raises(OutOfRange):
        call()


# --- inputs read once, weights checked against the double range ----------------------


# Each call takes the points and their number, which the weights need.
_ONE_PASS_CALLS = {
    "summarize": lambda pts, n: summarize(pts),
    "ols_fit": lambda pts, n: ols_fit(pts),
    "ols_fit-x-on-y": lambda pts, n: ols_fit(pts, Axis.X_ON_Y),
    "wls_fit": lambda pts, n: wls_fit(pts, [1.0] * n),
    "correlation": lambda pts, n: correlation(pts),
    "residuals": lambda pts, n: residuals(_LINE_FITS[0], pts),
    "residuals-x-on-y": lambda pts, n: residuals(_LINE_FITS[1], pts),
    "sse": lambda pts, n: sse(_LINE_FITS[0], pts),
}


@pytest.mark.parametrize("name", list(_ONE_PASS_CALLS))
@given(st.lists(st.tuples(_scaled, _scaled), max_size=8))
# summarize of a generator came back n=0 with every sum 0; the three fits raised
# TypeError from len() of an iterator
@example([(0.0, 0.0), (1.0, 2.0), (2.0, 4.0)])
def test_an_iterator_of_points_gives_what_the_list_gives(name, pts):
    call = _ONE_PASS_CALLS[name]
    try:
        expected = call(pts, len(pts))
    except ThermofitError as e:
        for points in (iter(pts), (p for p in pts)):
            with pytest.raises(ThermofitError) as info:
                call(points, len(pts))
            assert type(info.value) is type(e)
        return
    assert call(iter(pts), len(pts)) == expected
    assert call((p for p in pts), len(pts)) == expected


def test_summarize_of_an_empty_iterable_raises():
    with pytest.raises(EmptyInput):
        summarize(p for p in ())


@pytest.mark.parametrize(
    "w", [10**400, 10**5000, -(10**5000), math.nan], ids=["1e400", "1e5000", "-1e5000", "nan"]
)
def test_wls_weight_outside_the_double_range_is_refused(w):
    # 10**400 raised an untyped OverflowError from math.isfinite
    with pytest.raises(NonPositiveWeight):
        wls_fit([(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)], [w, 1.0, 1.0])


@pytest.mark.parametrize("w", [1e-170, 1e-300, 1e200, 1e300])
@pytest.mark.parametrize("arrays", [False, True], ids=["python", "arrays"])
def test_wls_r_of_equal_weights_far_from_1_is_the_unweighted_r(w, arrays):
    # the product of the two weighted sums of squares underflowed (an untyped
    # ZeroDivisionError) or overflowed (r came back 0.0)
    xs, ys = [0.0, 1.0, 2.0], [0.0, 1.0, 3.0]
    fit = _fit(xs, ys, [w] * 3, Axis.Y_ON_X, arrays)
    assert fit.r == pytest.approx(ols_fit(zip(xs, ys)).r, rel=1e-14)


@pytest.mark.parametrize("arrays", [False, True], ids=["python", "arrays"])
def test_wls_of_subnormal_weights_is_out_of_range(arrays):
    with pytest.raises(OutOfRange, match="below the normal double range"):
        _fit([0.0, 1.0, 2.0], [0.0, 1.0, 3.0], [1e-320] * 3, Axis.Y_ON_X, arrays)


_HUGE_LINES = [
    LinearFit(10**400, 1.0, Axis.Y_ON_X, 0.5, 0.0, 2),
    LinearFit(1.0, 10**400, Axis.Y_ON_X, 0.5, 0.0, 2),
    LinearFit(10**400, 1.0, Axis.X_ON_Y, 0.5, 0.0, 2),
    LinearFit(1.0, 10**400, Axis.X_ON_Y, 0.5, 0.0, 2),
]


@pytest.mark.parametrize("fit", _HUGE_LINES, ids=["slope", "intercept", "slope-x-on-y", "intercept-x-on-y"])
@pytest.mark.parametrize(
    "call",
    [
        lambda fit: predict(fit, 1.0),
        lambda fit: residuals(fit, [(1.0, 2.0)]),
        lambda fit: _residuals(fit, [1.0], [2.0], arrays=True),
    ],
    ids=["predict", "residuals", "_residuals-arrays"],
)
def test_a_line_parameter_too_large_for_a_float_is_out_of_range(fit, call):
    # the int was multiplied by a float: an untyped OverflowError
    with pytest.raises(OutOfRange, match="an int too large for a float"):
        call(fit)


# --- the array path --------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda fit: residuals(fit, [(0.0, 1.0)]),
        lambda fit: sse(fit, [(0.0, 1.0)]),
        lambda fit: _residuals(fit, [0.0], [1.0], arrays=True),
    ],
    ids=["residuals", "sse", "_residuals-arrays"],
)
def test_residuals_of_a_zero_x_on_y_slope_are_degenerate(call):
    # 1/slope raised an untyped ZeroDivisionError
    with pytest.raises(DegenerateVariance, match="x-on-y slope is zero"):
        call(LinearFit(0.0, 1.0, Axis.X_ON_Y, 0.5, 0.0, 2))


def _outcome(call):
    """The float.hex of every number a core returns, or its error type and message."""
    try:
        result = call()
    except Exception as e:  # the Python core's untyped errors must match too
        return type(e), str(e)
    if isinstance(result, LinearFit):
        return [float.hex(v) for v in (result.slope, result.intercept, result.r, result.sse)], result.n
    return [float.hex(v) for v in result]


_SPECIAL = [math.nan, math.inf, -math.inf, 10**400, -0.0, 5e-324, 1e-310]


@st.composite
def _point_sets(draw):
    """Columns at one scale from 1e-150 to 1e150: mostly plain, some with equal
    values, subnormal deviations or one special value."""
    n = draw(st.integers(2, 12))
    scale = 10.0 ** draw(st.integers(-150, 150))
    column = st.lists(st.floats(-1e3, 1e3) | st.integers(-50, 50), min_size=n, max_size=n)
    xs, ys = ([v * scale for v in draw(column)] for _ in "xy")
    shape = draw(st.sampled_from(["plain"] * 4 + ["ints", "equal-x", "equal-y", "subnormal-x", "special"]))
    if shape == "ints":
        xs = draw(st.lists(st.integers(-(2**60), 2**60), min_size=n, max_size=n))
    elif shape == "equal-x":
        xs = [xs[0]] * n
    elif shape == "equal-y":
        ys = [ys[0]] * n
    elif shape == "subnormal-x":
        xs = [5e-324 * draw(st.integers(-3, 3)) for _ in range(n)]
    elif shape == "special":
        draw(st.sampled_from([xs, ys]))[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_SPECIAL))
    return xs, ys


_weight = st.floats(1e-3, 1e3)
_weights = st.none() | st.lists(
    _weight, min_size=12, max_size=12
) | st.lists(_weight | st.sampled_from([0.0, -1.0, math.inf, 10**400]), min_size=12, max_size=12)


@given(_point_sets(), _weights, st.sampled_from(Axis))
@example(([0.0, 1.0, 2.0], [0.0, 2.0, 4.1]), None, Axis.Y_ON_X)
@example(([0.0, 1e155, 2e155], [0.0, 1.0, 3.0]), None, Axis.Y_ON_X)  # squares overflow
@example(([1e-160, 2e-160, 4e-160], [1.0, 3.0, 2.0]), [1.0, 2.0, 3.0], Axis.X_ON_Y)  # deviations underflow
@example(([0.0, 1.0, 2.0], [0.0, 1.0, 3.0]), [1e-170] * 12, Axis.Y_ON_X)  # r's denominator underflows
@example(([0.0, 1.0, 2.0], [0.0, 1.0, 3.0]), [1e300] * 12, Axis.Y_ON_X)  # r's denominator overflows
@example(([0.0, 1.0, 2.0], [0.0, 1.0, 3.0]), [1e-320] * 12, Axis.Y_ON_X)  # subnormal sums of squares
def test_the_array_core_is_the_python_core_bit_for_bit(columns, weights, axis):
    xs, ys = columns
    ws = None if weights is None else weights[: len(xs)]
    if ws is not None:
        axis = Axis.Y_ON_X
    fit = _outcome(lambda: _fit(xs, ys, ws, axis, arrays=True))
    assert fit == _outcome(lambda: _fit(xs, ys, ws, axis, arrays=False))
    for line in (_fit(FULL_XS, FULL_YS, None, axis), _manual_fit(7.5e-3, -2.0, axis)):
        assert _outcome(lambda: _line(line, xs, arrays=True)) == _outcome(lambda: _line(line, xs))
        assert _outcome(lambda: _residuals(line, xs, ys, arrays=True)) == _outcome(lambda: _residuals(line, xs, ys))


def test_the_array_path_squares_as_python_does():
    # x*x and the C library's pow(x, 2), which Python's ** uses, differ in about
    # one square in a thousand
    import numpy as np

    rng = random.Random(5)
    values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-160, 150) for _ in range(20_000)]
    squares = _square(np, np.array(values)).tolist()
    assert list(map(float.hex, squares)) == [float.hex(v**2) for v in values]


def test_the_array_path_computes_where_the_python_core_does():
    # the property above would hold trivially if the array path always gave up
    fit = _fit(FULL_XS, FULL_YS, None, Axis.Y_ON_X)
    assert _on_arrays(_fit_arrays, FULL_XS, FULL_YS, None, Axis.X_ON_Y) is not None
    assert _on_arrays(_fit_arrays, FULL_XS, FULL_YS, [2.0] * len(FULL_XS), Axis.Y_ON_X) is not None
    assert _on_arrays(_affine_arrays, fit.slope, fit.intercept, FULL_XS, FULL_YS) is not None
