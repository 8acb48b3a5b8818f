import math
import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import thermofit
from thermofit import (
    JacobianMode,
    Sample,
    Series,
    StepModelParams,
    build_report,
    builtin_series,
    default_init,
    gauss_newton,
    gradient_descent,
    jacobian,
    model_eval,
    model_sse,
    ols_fit,
    sse_gradient,
)
from thermofit.errors import (
    EmptySeries,
    InsufficientData,
    InvalidInit,
    NonIncreasingTime,
    OutOfRange,
    SingularNormalMatrix,
    ThermofitError,
)
from thermofit import stepmodel
from thermofit.errors import _ARRAY_MIN
from thermofit.stepmodel import _ArraySums, _ListSums
from thermofit.svgplot import render_plot

from conftest import synth_series


def random_params(rng):
    return StepModelParams(rng.uniform(10, 40), rng.uniform(45, 95), rng.uniform(3, 40))


# --- model_eval ----------------------------------------------------------------


def test_model_eval_at_zero():
    assert model_eval(StepModelParams(20, 60, 10), 0.0) == 20.0


def test_model_eval_asymptote():
    assert model_eval(StepModelParams(20, 60, 10), 1e6) == pytest.approx(60.0, abs=1e-9)


def test_model_eval_one_time_constant():
    expected = 60.0 - 40.0 / math.e
    assert model_eval(StepModelParams(20, 60, 10), 10.0) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("t", [-1e4, math.nan, -math.inf])
def test_model_eval_refuses_a_non_finite_temperature(t):
    # exp(1000) overflows; NaN and -inf would otherwise come back as results
    with pytest.raises(OutOfRange, match=r"^t="):
        model_eval(StepModelParams(20, 60, 10), t)
    assert model_eval(StepModelParams(20, 60, 10), math.inf) == 60.0


# --- jacobian --------------------------------------------------------------------


def test_jacobian_row_at_time_zero():
    J = jacobian(StepModelParams(22, 77, 9), [0.0, 5.0])
    assert J[0].tolist() == [1.0, 0.0, 0.0]


def test_jacobian_tau_column_zero_for_flat_response():
    J = jacobian(StepModelParams(25, 25, 12), [0.0, 5.0, 10.0, 20.0])
    assert np.all(J[:, 2] == 0.0)


def test_jacobian_analytic_vs_finite_difference():
    rng = random.Random(201)
    times = [float(t) for t in range(0, 65, 5)]
    for _ in range(100):
        p = random_params(rng)
        a = jacobian(p, times, JacobianMode.ANALYTIC)
        f = jacobian(p, times, JacobianMode.FINITE_DIFF)
        rel = np.linalg.norm(a - f) / (1.0 + np.linalg.norm(a))
        assert rel <= 1e-5


def test_step_model_rejects_bad_params():
    series = synth_series(20, 60, 15)
    for params in (StepModelParams(20, 60, 0.0), StepModelParams(20, 60, -5.0), StepModelParams(math.nan, 60, 5.0)):
        for call in (
            lambda: jacobian(params, [0.0]),
            lambda: model_eval(params, 0.0),
            lambda: model_sse(params, series),
            lambda: sse_gradient(params, series),
        ):
            with pytest.raises(InvalidInit):
                call()


# --- gradient of the objective ----------------------------------------------------


def test_sse_gradient_matches_finite_differences():
    rng = random.Random(202)
    series = synth_series(20, 60, 15)
    h_scale = np.cbrt(np.finfo(float).eps)
    for _ in range(100):
        p = random_params(rng)
        g = sse_gradient(p, series)
        theta = p.as_array()
        fd = np.empty(3)
        for j in range(3):
            h = h_scale * max(1.0, abs(theta[j]))
            plus, minus = theta.copy(), theta.copy()
            plus[j] += h
            minus[j] -= h
            fd[j] = (
                model_sse(StepModelParams(*plus), series)
                - model_sse(StepModelParams(*minus), series)
            ) / (plus[j] - minus[j])
        assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(g))


# --- gauss_newton -------------------------------------------------------------------


def test_gauss_newton_recovers_noiseless_truth():
    series = synth_series(20, 60, 15)
    fit = gauss_newton(series, StepModelParams(15, 50, 10))
    assert fit.params.t_ambient_c == pytest.approx(20.0, abs=1e-6)
    assert fit.params.t_final_c == pytest.approx(60.0, abs=1e-6)
    assert fit.params.tau_s == pytest.approx(15.0, abs=1e-6)
    assert fit.sse < 1e-12
    assert fit.converged


def test_gauss_newton_freeze_tau_single_step_exact():
    # tau frozen leaves a linear model: one iteration must land on the
    # closed-form least-squares solution (computed independently via lstsq)
    series = synth_series(18, 70, 12)
    noisy = Series(
        series.label,
        tuple(Sample(s.time_s, s.temperature_c + ((i % 3) - 1) * 0.8) for i, s in enumerate(series.samples)),
    )
    tau = 16.0
    times = np.array([s.time_s for s in noisy.samples])
    ys = np.array([s.temperature_c for s in noisy.samples])
    u = np.exp(-times / tau)
    coef, *_ = np.linalg.lstsq(np.column_stack([u, 1 - u]), ys, rcond=None)
    fit = gauss_newton(noisy, StepModelParams(30, 40, tau), freeze_tau=True, max_iter=1)
    assert fit.params.t_ambient_c == pytest.approx(coef[0], abs=1e-10)
    assert fit.params.t_final_c == pytest.approx(coef[1], abs=1e-10)
    assert fit.params.tau_s == tau


def test_gauss_newton_beats_line_on_full_load(full_series):
    lin = ols_fit(full_series.points())
    fit = gauss_newton(full_series, StepModelParams(20.2, 57, 20))
    assert fit.converged
    assert fit.sse < lin.sse


def test_gauss_newton_flags_unidentifiable_parameters():
    # flat init away from flat data: the tau column of J is identically zero
    flat = Series("flat", tuple(Sample(float(t), 25.0) for t in range(0, 40, 5)))
    with pytest.raises(SingularNormalMatrix):
        gauss_newton(flat, StepModelParams(30.0, 30.0, 10.0))


def test_gauss_newton_input_checks():
    short = Series("s", tuple(Sample(float(t), 20.0 + t) for t in range(3)))
    with pytest.raises(InsufficientData):
        gauss_newton(short)
    series = synth_series(20, 60, 15)
    with pytest.raises(InvalidInit):
        gauss_newton(series, StepModelParams(20, 60, 0.0))


_TRUTH = StepModelParams(20, 60, 15)


@pytest.mark.parametrize(
    "solver",
    [
        gauss_newton,
        gradient_descent,
        pytest.param(partial(model_sse, _TRUTH), id="model_sse"),
        pytest.param(partial(sse_gradient, _TRUTH), id="sse_gradient"),
        default_init,
        build_report,
        pytest.param(partial(build_report, nonlinear=True), id="build_report-nonlinear"),
        pytest.param(lambda s: render_plot(s, ols_fit(synth_series(20, 60, 15).points())), id="render_plot"),
    ],
)
@pytest.mark.parametrize(
    "sample,err", [(Sample(10.0, float("nan")), OutOfRange), (Sample(5.0, 21.0), NonIncreasingTime)]
)
def test_solvers_refuse_invalid_series(solver, sample, err):
    # Third sample replaced: a NaN reading, or a repeat of the second timestamp.
    samples = list(synth_series(20, 60, 15).samples)
    samples[2] = sample
    with pytest.raises(err):
        solver(Series("bad", tuple(samples)))


def test_gauss_newton_trace_non_increasing():
    series = synth_series(22, 65, 18)
    fit = gauss_newton(series, StepModelParams(30, 50, 30))
    sses = [s for _, s in fit.trace]
    assert all(b <= a for a, b in zip(sses, sses[1:]))
    assert fit.trace[0][0] == 0
    assert fit.sse == sses[-1]


# --- gradient_descent -----------------------------------------------------------------


def test_gradient_descent_recovers_noiseless_truth():
    series = synth_series(20, 60, 15)
    fit = gradient_descent(series, StepModelParams(15, 50, 10))
    assert fit.params.t_ambient_c == pytest.approx(20.0, abs=1e-3)
    assert fit.params.t_final_c == pytest.approx(60.0, abs=1e-3)
    assert fit.params.tau_s == pytest.approx(15.0, abs=1e-3)


def test_gradient_descent_at_truth_terminates_immediately():
    series = synth_series(20, 60, 15)
    fit = gradient_descent(series, StepModelParams(20, 60, 15))
    assert fit.sse < 1e-12
    assert fit.iterations == 0
    assert fit.converged


def test_gradient_descent_never_increases_sse():
    rng = random.Random(203)
    for _ in range(5):
        truth = random_params(rng)
        series = synth_series(truth.t_ambient_c, truth.t_final_c, truth.tau_s)
        init = StepModelParams(
            truth.t_ambient_c * 1.4, truth.t_final_c * 0.6, truth.tau_s * 1.5
        )
        fit = gradient_descent(series, init, max_iter=500)
        sses = [s for _, s in fit.trace]
        assert all(b <= a for a, b in zip(sses, sses[1:]))
        assert fit.sse <= sses[0]


# --- fixed 20-case suite (shared fixture) ------------------------------------------------


def test_suite_gauss_newton_recovery(nl_suite_results):
    for truth, gn, _ in nl_suite_results:
        for got, want in zip(gn.params.as_array(), truth):
            assert got == pytest.approx(want, abs=1e-6)


def test_suite_gradient_descent_recovery(nl_suite_results):
    for truth, _, gd in nl_suite_results:
        for got, want in zip(gd.params.as_array(), truth):
            assert got == pytest.approx(want, abs=1e-3)


def test_suite_both_reach_tiny_sse(nl_suite_results):
    for _, gn, gd in nl_suite_results:
        assert gn.sse < 1e-10
        assert gd.sse < 1e-10


def test_suite_solver_agreement(nl_suite_results):
    for _, gn, gd in nl_suite_results:
        assert abs(gn.sse - gd.sse) <= 1e-4 * max(1.0, gn.sse, gd.sse)


# --- misc -----------------------------------------------------------------------------


def test_default_init(full_series):
    init = default_init(full_series)
    assert init.t_ambient_c == 20.2
    assert init.t_final_c == 56.8
    assert init.tau_s == pytest.approx((60.0 - 1.0) / 3.0)
    with pytest.raises(EmptySeries):
        default_init(Series("empty", ()))
    # one sample spans no time, so a third of its span is no time constant
    with pytest.raises(InsufficientData):
        default_init(Series("one", [(5.0, 20.0)]))


_sample_times = st.floats(0.0, 1e6) | st.sampled_from([0.0, 5e-324, 1e-323, 2.5e-323])


@given(
    st.lists(_sample_times, min_size=2, max_size=20, unique=True).map(sorted).flatmap(
        lambda ts: st.lists(st.floats(-273.15, 1e4), min_size=len(ts), max_size=len(ts)).map(
            lambda ys: Series("s", zip(ts, ys))
        )
    )
)
@example(Series("tiny", [(0.0, 20.0), (5e-324, 30.0)]))  # a third of the span rounded to tau = 0
def test_default_init_is_a_start_the_model_takes(series):
    assert math.isfinite(model_sse(default_init(series), series))


@pytest.mark.parametrize(
    "solver,option,value",
    [
        (gradient_descent, "window", 0),
        (gradient_descent, "window", -1),
        (gradient_descent, "learning_rate", 0.0),
        (gradient_descent, "learning_rate", -1e-4),
        (gradient_descent, "learning_rate", math.inf),
        (gradient_descent, "learning_rate", math.nan),
        (gauss_newton, "max_halvings", -1),
        (gauss_newton, "max_halvings", 1.5),
        (gradient_descent, "window", 2.5),
        (gauss_newton, "max_iter", -3),
        (gradient_descent, "max_iter", -1),
        (gauss_newton, "max_iter", 2.5),
        (gauss_newton, "tol", math.nan),
        (gauss_newton, "tol", -1.0),
        (gradient_descent, "tol", math.nan),
    ],
)
def test_solvers_refuse_out_of_range_options(full_series, solver, option, value):
    with pytest.raises(OutOfRange, match=option):
        solver(full_series, **{option: value})


# --- stopping rule: one case for each way a solver's loop ends --------------------------

_FLAT = Series("flat", tuple(Sample(float(t), 25.0) for t in range(0, 40, 5)))
_NOISY = Series(
    "noisy",
    tuple(
        Sample(s.time_s, s.temperature_c + ((i % 3) - 1) * 0.8)
        for i, s in enumerate(synth_series(18, 70, 12).samples)
    ),
)
# At tau = 1, exp(-t/tau) is exactly 1 at t = 0 and underflows to 0 after it,
# so phi_k is exactly (0, 1, 1, 1) at k = 1 and d(phi_k)/dk = -phi_k: the SSE's
# derivative in k is exactly zero there.  On _KINK (20, 60, 1) is already the
# inner solve, whose residuals (0, -10, 0, 10) leave an SSE of 200; on _STEP
# the inner solve at tau = 1 lands exactly on (20, 60), at an SSE of 0.
_KINK = Series(
    "kink", (Sample(0.0, 20.0), Sample(1000.0, 50.0), Sample(2000.0, 60.0), Sample(3000.0, 70.0))
)
_STEP = Series(
    "step", (Sample(0.0, 20.0), Sample(1000.0, 60.0), Sample(2000.0, 60.0), Sample(3000.0, 60.0))
)
_FULL = builtin_series("full")
_GN, _GD = gauss_newton, gradient_descent


@pytest.mark.parametrize(
    "solver,series,init,options,iterations,converged,sse",
    [
        (_GN, _FLAT, StepModelParams(25, 25, 10), {}, 0, True, 0.0),
        (_GN, _STEP, StepModelParams(10, 30, 1), {"freeze_tau": True}, 1, True, 0.0),
        (_GN, _STEP, StepModelParams(10, 30, 1), {"max_iter": 1}, 1, True, 0.0),
        (_GN, _FULL, None, {}, 12, True, 168.49401439372392),
        # a fit that stops above the line's SSE, 168.49, is not converged at any tol
        (_GN, _FULL, None, {"tol": 0.9}, 1, False, 207.5485119978748),
        (_GN, _FULL, None, {"max_iter": 1}, 1, False, 207.5485119978748),
        (_GN, _FULL, None, {"max_iter": 0}, 0, False, 997.4977749963198),
        (_GN, _FULL, StepModelParams(20, 500, 5), {"max_halvings": 0}, 1, False, 1644.2795942262155),
        (_GD, _FLAT, StepModelParams(25, 25, 10), {}, 0, True, 0.0),
        (_GD, _NOISY, StepModelParams(15, 50, 10), {"window": 10, "tol": 1e-6}, 43, True, 5.214544325368813),
        (_GD, _FULL, None, {"window": 3, "tol": 0.9}, 3, False, 461.6013985043088),
        (_GD, _FULL, None, {"max_iter": 5}, 5, False, 228.4011655761101),
        (_GD, _FULL, None, {"learning_rate": 1e100}, 1, False, 554.8311565148846),
        (_GD, _KINK, StepModelParams(20, 60, 1), {}, 0, True, 200.0),
    ],
    ids=[
        "gn-sse-zero",
        "gn-sse-reaches-zero",
        "gn-sse-reaches-zero-at-max-iter",
        "gn-tol-per-step",
        "gn-tol-first-step",
        "gn-max-iter",
        "gn-max-iter-zero",
        "gn-no-improving-step",
        "gd-sse-zero",
        "gd-tol-over-window",
        "gd-tol-first-window",
        "gd-max-iter",
        "gd-no-improving-step",
        "gd-zero-gradient",
    ],
)
def test_stop_rule_table(solver, series, init, options, iterations, converged, sse):
    fit = solver(series, init, **options)
    assert (fit.iterations, fit.converged) == (iterations, converged)
    assert len(fit.trace) == iterations + 1
    assert [k for k, _ in fit.trace] == list(range(iterations + 1))
    assert fit.trace[-1][1] == fit.sse
    # SSEs may differ in the last bits across CPUs (np.exp, LAPACK)
    assert fit.sse == pytest.approx(sse, rel=1e-9, abs=1e-300)
    if converged and fit.sse > 0 and iterations > 0:
        # the tolerance test holds over the last `span` iterations, and not one earlier
        span = options.get("window", 100) if solver is _GD else 1
        tol = options.get("tol", 1e-10)

        def decrease(k):
            past = fit.trace[k - span][1]
            return (past - fit.trace[k][1]) / past

        assert decrease(iterations) < tol
        if iterations > span:
            assert decrease(iterations - 1) >= tol


@pytest.mark.parametrize("exponent", [-1000, -600, 600, 1000])
@pytest.mark.parametrize("solver", [_GN, _GD])
def test_a_fit_does_not_depend_on_the_unit_of_time(solver, exponent):
    # Times scaled by a power of 2 give the same fit, with tau scaled alike: the
    # solvers measure time in units of a power of 2 near the last time.
    scale = 2.0**exponent
    fit = solver(_NOISY)
    scaled = solver(Series("scaled", tuple((t * scale, y) for t, y in zip(_NOISY.times, _NOISY.temps))))
    assert scaled.params == StepModelParams(fit.params.t_ambient_c, fit.params.t_final_c, fit.params.tau_s * scale)
    assert (scaled.sse, scaled.iterations, scaled.converged) == (fit.sse, fit.iterations, fit.converged)


# --- exact scaling symmetries -----------------------------------------------------------
# A power of 2 scales every operation exactly, away from underflow and overflow,
# so these hold bit for bit.  A time shift is not a symmetry: the model starts
# at t = 0.


@st.composite
def scalable_steps(draw):
    """A noisy step response of 5 to ``_ARRAY_MIN`` samples, its times and
    temperatures far from the ends of the double range; some are flat or
    span a fraction of a time constant, so that a fit may not converge or may
    raise."""
    n = draw(st.sampled_from([5, 13, 40, 200, _ARRAY_MIN]))
    t0, tinf, tau = draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 150.0)), draw(st.floats(0.5, 50.0))
    dt = tau * draw(st.floats(0.1, 20.0)) / (n - 1)
    noise = draw(st.floats(0.0, 0.5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    start = draw(st.sampled_from([0.0, dt]))
    times = [start + i * dt for i in range(n)]
    temps = [tinf + (t0 - tinf) * math.exp(-t / tau) + rng.gauss(0.0, noise) for t in times]
    return Series("step", tuple(zip(times, temps)))


def _scaled(series, dt=1.0, dy=1.0):
    return Series("scaled", tuple((t * dt, y * dy) for t, y in zip(series.times, series.temps)))


def _outcome(fit, data):
    """``fit(data)``, or the type of the error it raises."""
    try:
        return fit(data)
    except ThermofitError as e:
        return type(e)


# gradient_descent's iterations are capped so that a draw takes milliseconds
_SOLVERS = [_GN, partial(_GD, max_iter=2000)]


@settings(max_examples=40, deadline=None)
@given(scalable_steps())
@pytest.mark.parametrize("solver", _SOLVERS, ids=["gauss_newton", "gradient_descent"])
def test_times_times_four_give_tau_times_four_and_the_same_fit(solver, series):
    fit, scaled = _outcome(solver, series), _outcome(solver, _scaled(series, dt=4.0))
    if isinstance(fit, type):
        assert scaled is fit
        return
    p = fit.params
    assert scaled.params == StepModelParams(p.t_ambient_c, p.t_final_c, p.tau_s * 4.0)
    assert (scaled.sse, scaled.iterations, scaled.converged, scaled.trace) == (
        fit.sse, fit.iterations, fit.converged, fit.trace,
    )


@settings(max_examples=40, deadline=None)
@given(scalable_steps())
def test_temperatures_times_a_quarter_scale_the_gauss_newton_fit(series):
    fit, scaled = _outcome(_GN, series), _outcome(_GN, _scaled(series, dy=0.25))
    if isinstance(fit, type):
        assert scaled is fit
        return
    p = fit.params
    assert scaled.params == StepModelParams(p.t_ambient_c / 4.0, p.t_final_c / 4.0, p.tau_s)
    assert (scaled.sse, scaled.iterations, scaled.converged) == (fit.sse / 16.0, fit.iterations, fit.converged)


@settings(max_examples=40, deadline=None)
@given(scalable_steps())
def test_the_line_fit_scales_with_the_units(series):
    line = _outcome(ols_fit, series.points())
    slower = _outcome(ols_fit, _scaled(series, dt=4.0).points())
    cooler = _outcome(ols_fit, _scaled(series, dy=0.25).points())
    if isinstance(line, type):
        assert slower is cooler is line
        return
    assert (slower.slope, slower.intercept, slower.sse, slower.r) == (line.slope / 4.0, line.intercept, line.sse, line.r)
    assert (cooler.slope, cooler.intercept, cooler.sse, cooler.r) == (
        line.slope / 4.0, line.intercept / 4.0, line.sse / 16.0, line.r,
    )


# --- the two kernels of per-sample sums: Python lists and numpy arrays ------------------


@st.composite
def identifiable_steps(draw):
    """A noisy step response on the scale of C5's suite, whose three
    parameters the data determine: the span covers 2 to 10 time constants and
    the noise is 0.05 to 0.5 degC.  Sizes lie on both sides of ``_ARRAY_MIN``."""
    n = draw(st.sampled_from([13, 40, 200, _ARRAY_MIN - 1, _ARRAY_MIN, 2 * _ARRAY_MIN + 1]))
    t0, tinf, tau = draw(st.floats(10.0, 30.0)), draw(st.floats(40.0, 90.0)), draw(st.floats(5.0, 30.0))
    dt = tau * draw(st.floats(2.0, 10.0)) / (n - 1)
    noise = draw(st.floats(0.05, 0.5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    times = [i * dt for i in range(n)]
    temps = [tinf + (t0 - tinf) * math.exp(-t / tau) + rng.gauss(0.0, noise) for t in times]
    return Series("step", tuple(zip(times, temps)))


def _reduced_sse(times, temps, k):
    """The least SSE of T0 + s0 * phi_k(t) over (T0, s0), by numpy's lstsq;
    phi_k(t) = (1 - exp(-k t)) / k, and phi_0(t) = t."""
    phi = times if k == 0 else -np.expm1(-k * times) / k
    a = np.column_stack([np.ones_like(times), phi])
    r = temps - a @ np.linalg.lstsq(a, temps, rcond=None)[0]
    return float(r @ r)


def _reduced_optimum(series):
    """The least reduced SSE over k = 1/tau: a scan of 401 points of log k
    over six decades around 1/span, refined by golden section."""
    times, temps = np.array(series.times, dtype=float), np.array(series.temps, dtype=float)
    span = times[-1] - times[0]

    def f(u):
        return _reduced_sse(times, temps, math.exp(u))

    grid = np.linspace(math.log(1e-3 / span), math.log(1e3 / span), 401).tolist()
    values = [f(u) for u in grid]
    i = min(range(1, len(grid) - 1), key=values.__getitem__)
    a, b = grid[i - 1], grid[i + 1]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return min(values[i], fc, fd)


def _probe(draws):
    """Draws of a seeded probe of noisy step series: 13, 40 or 200 samples
    over 2 to 10 time constants, noise 0.05 to 0.5 degC."""
    rng = random.Random(11)
    out = []
    for i in range(max(draws) + 1):
        n = rng.choice([13, 40, 200])
        t0, tinf, tau = rng.uniform(10, 30), rng.uniform(40, 90), rng.uniform(10, 30)
        span = tau * rng.uniform(2, 10)
        noise = rng.uniform(0.05, 0.5)
        times = [span * j / (n - 1) for j in range(n)]
        temps = [tinf + (t0 - tinf) * math.exp(-t / tau) + rng.gauss(0, noise) for t in times]
        if i in draws:
            out.append(Series(f"probe-{i}", tuple(zip(times, temps))))
    return out


def _with_examples(series_list, **arguments):
    def decorate(test):
        for series in series_list:
            test = example(series=series, **arguments)(test)
        return test

    return decorate


# Draws where a full Gauss-Newton step in (T_0, T_inf, tau) from the default
# start overshoots tau to below 1 s, where the SSE is flat in tau, and draw
# 1907, where the normal matrix of that step is singular.
_STRAY = (54, 81, 171, 567, 833, 1256, 1422, 1463, 1581, 1759, 1960, 1907)


@settings(max_examples=50)
@_with_examples(_probe(_STRAY))
@given(series=identifiable_steps())
def test_gauss_newton_reaches_the_reduced_optimum(series):
    fit = gauss_newton(series)
    assert fit.sse == pytest.approx(_reduced_optimum(series), rel=1e-9)


# --- a converged fit is never worse than the straight line -----------------------------

# Two series on which both solvers walk onto the plateau at large k, where tau
# is far below the sample spacing and the model is a jump after the first
# sample, and stop there, converged, above the line's SSE (316.05 against
# 314.78, and 1619.82 against 1606.07), although k = 0, the line, is a minimum.
_ABOVE_THE_LINE = (
    Series(
        "plateau",
        [(0.0, 28.821794), (205.92949, 11.507362), (411.85898, 19.1525), (617.78847, 18.971106), (823.71796, 35.795909)],
    ),
    Series(
        "plateau-2",
        [(0.0, 2.113574), (71.296429, 19.10374), (142.592858, 28.575209), (213.889287, -11.725923), (285.185716, 43.225097)],
    ),
)


@st.composite
def probe_series(draw):
    """5 to 60 samples of a step, a power curve or flat data, with noise of 0.01 to 20 degC."""
    n, span = draw(st.integers(5, 60)), draw(st.floats(1.0, 1000.0))
    shape = draw(st.sampled_from(["step", "power", "flat"]))
    start, rise = draw(st.floats(10.0, 40.0)), draw(st.floats(-30.0, 50.0))
    c = draw(st.floats(0.05, 3.0))  # tau over the span of a step, the exponent of a power curve
    noise = draw(st.floats(0.01, 20.0))
    rng = random.Random(draw(st.integers(0, 2**32)))
    shapes = {
        "step": lambda u: start + rise * -math.expm1(-u / c),
        "power": lambda u: start + rise * u**c,
        "flat": lambda u: start,
    }
    times = [span * i / (n - 1) for i in range(n)]
    return Series(shape, [(t, shapes[shape](t / span) + rng.gauss(0.0, noise)) for t in times])


@pytest.mark.parametrize(
    "solver", [_GN, _GD, pytest.param(partial(_GD, window=3), id="gradient_descent-window-3")]
)
@_with_examples(_ABOVE_THE_LINE, tol=1e-10)
# full load, where k = 0 is no minimum: one step, or one window, meets the loose
# tol at SSE 207.55 or 461.60, above the line's 168.49
@example(series=_FULL, tol=0.9)
@given(series=probe_series(), tol=st.floats(1e-10, 1.0))
def test_a_converged_fit_is_never_worse_than_the_line(solver, series, tol):
    # at k = 0 the step model is the line, so a fit above the line's SSE has
    # not found the minimum, whatever tol it met; where k = 0 is one, the best
    # fit is the line
    try:
        fit = solver(series, tol=tol)
    except SingularNormalMatrix:
        return
    if fit.converged:
        line = ols_fit(series.points()).sse
        assert fit.sse <= line or fit.sse == pytest.approx(line, rel=1e-12)


def _fit_with(kernel, series):
    """gauss_newton with the kernel forced, or the SingularNormalMatrix it raises."""
    with mock.patch.object(stepmodel, "_sums", kernel):
        try:
            return gauss_newton(series)
        except SingularNormalMatrix as e:
            return e


@settings(max_examples=40)
@given(series=identifiable_steps())
def test_the_list_and_array_kernels_fit_alike(series):
    lists, arrays = _fit_with(_ListSums, series), _fit_with(_ArraySums, series)
    if isinstance(lists, SingularNormalMatrix) or isinstance(arrays, SingularNormalMatrix):
        assert type(lists) is type(arrays)
        return
    assert lists.converged == arrays.converged
    assert lists.sse == pytest.approx(arrays.sse, rel=1e-9)
    for a, b in zip(lists.params.as_array(), arrays.params.as_array()):
        assert a == pytest.approx(b, abs=1e-6)


@given(series=identifiable_steps(), scale=st.tuples(*[st.floats(0.5, 2.0)] * 3), line=st.booleans())
def test_the_list_and_array_kernels_sum_alike(series, scale, line):
    # at parameters near the truth, and at k = 0, every sum agrees to rounding
    theta = tuple(p * k for p, k in zip(default_init(series).as_array().tolist(), scale))
    lists, arrays = _ListSums(series), _ArraySums(series)
    assert lists.sse(theta) == pytest.approx(arrays.sse(theta), rel=1e-11)
    k = 0.0 if line else 1.0 / theta[2]
    (lt0, ls0, lsse, lg, lh), (at0, as0, asse, ag, ah) = lists.reduced(k), arrays.reduced(k)
    syy = lists.dot(lists.dev_temps, lists.dev_temps)  # the SSE at s0 = 0
    assert lt0 == pytest.approx(at0, rel=1e-11)
    assert ls0 == pytest.approx(as0, rel=1e-11)
    assert lsse == pytest.approx(asse, abs=1e-11 * syy)
    assert lh == pytest.approx(ah, rel=1e-11)
    assert lg == pytest.approx(ag, abs=1e-11 * math.sqrt(ah * syy))  # |q'r| <= |q| |r|


@pytest.mark.parametrize(
    "temps",
    [
        (29.0, 49.9, 59.9, 65.8, 69.9, 70.85, 71.75, 72.15, 73.2, 73.3, 72.4, 72.75, 72.5),
        (20.25, 29.35, 35.1, 39.95, 43.1, 45.75, 47.95, 48.4, 49.3, 50.65, 50.4, 50.7, 51.65),
    ],
)
@pytest.mark.parametrize("kernel", [_ListSums, _ArraySums])
def test_a_fit_that_stops_at_the_rounding_of_its_sse_is_converged(temps, kernel):
    # Gauss-Newton reaches an accepted step that lowers the SSE by just over tol;
    # any step after it changes the SSE by less than its rounding, so no damped
    # step improves.  That is the minimum, not a failure.
    fit = _fit_with(kernel, Series("floor", tuple(zip([5.0 * k for k in range(13)], temps))))
    assert fit.converged


@pytest.mark.parametrize("n,kernel", [(_ARRAY_MIN - 1, _ListSums), (_ARRAY_MIN, _ArraySums)])
def test_the_kernel_is_chosen_by_the_series_size(n, kernel):
    series = synth_series(20, 60, n / 3, times=[float(t) for t in range(n)])
    assert type(stepmodel._sums(series)) is kernel


_REPORT_BYTES = """
import math, sys
from thermofit import Series, build_report, render_json
n = 20000
series = Series("big", [(float(t), 60.0 - 40.0 * math.exp(-t / (n / 3)) + 0.3 * math.sin(t)) for t in range(n)])
sys.stdout.write(render_json(build_report(series, nonlinear=True)))
"""


def test_the_array_kernel_writes_the_same_report_under_any_blas_thread_count():
    # 20 000 samples: above _ARRAY_MIN, and long enough for OpenBLAS to split a dot product
    src = str(Path(thermofit.__file__).resolve().parents[1])
    out = [
        subprocess.run(
            [sys.executable, "-c", _REPORT_BYTES],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert out[0] == out[1]
